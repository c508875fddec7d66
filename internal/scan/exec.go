package scan

import (
	"fmt"

	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/metrics"
	"wavefront/internal/trace"
)

// ExecOptions controls serial block execution.
type ExecOptions struct {
	// Prefer biases the derived loop structure (e.g. contiguous dimension
	// innermost for cache studies).
	Prefer dep.Preference
	// ForceTemp makes plain statements always materialize their right-hand
	// side into a temporary before assigning, even when a legal in-place
	// loop order exists. Used by the temp-vs-in-place ablation.
	ForceTemp bool
	// Trace, when non-nil, records every fused-loop run (and temp-path
	// statement) as a kernel span attributed to TraceRank.
	Trace *trace.Recorder
	// TraceRank attributes serial spans when Trace is set (0 for a plain
	// serial run; the executing rank when a parallel runtime delegates).
	TraceRank int
	// Engine selects the kernel execution strategy (tape by default, with
	// EngineClosure forcing the per-point reference path).
	Engine Engine
	// Scheduler selects how the iteration space executes: the derived
	// serial loop nest (SchedStatic, default) or the tile DAG on a pool of
	// real goroutines (SchedTaskDAG).
	Scheduler Scheduler
	// Workers is the task-DAG pool size including the caller; <= 0 selects
	// runtime.GOMAXPROCS(0). Ignored under SchedStatic.
	Workers int
	// Metrics, when non-nil, publishes each kernel's executor-path tallies
	// (kernel_path_total) under MetricsRank's shard, so callers can see
	// which path — span, skewed, scalar, closure — actually ran.
	Metrics *metrics.Registry
	// MetricsRank is the registry shard serial execution attributes to.
	MetricsRank int
}

// Exec runs the block serially against env. Scan blocks execute as a single
// fused loop nest in the derived order; plain blocks execute statement by
// statement with ordinary array semantics.
func Exec(b *Block, env expr.Env, opt ExecOptions) error {
	if err := checkBounds(b, env); err != nil {
		return err
	}
	switch b.Kind {
	case ScanKind:
		an, err := Analyze(b, opt.Prefer)
		if err != nil {
			return err
		}
		return execFused(b, env, an, opt)
	case PlainKind:
		for i := range b.Stmts {
			sub := &Block{Kind: PlainKind, Region: b.Region, Stmts: b.Stmts[i : i+1]}
			an, err := Analyze(sub, opt.Prefer)
			if err != nil {
				return err
			}
			if an.NeedsTemp() || opt.ForceTemp {
				if err := execViaTemp(sub, env, opt); err != nil {
					return err
				}
				continue
			}
			if err := execFused(sub, env, an, opt); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("scan: unknown block kind %v", b.Kind)
}

// CheckBounds verifies that the covering region and every shifted read stay
// within each referenced field's storage. It is exported for the parallel
// runtime, which performs the same validation against the global fields
// before decomposing.
func CheckBounds(b *Block, env expr.Env) error { return checkBounds(b, env) }

// checkBounds verifies that the covering region and every shifted read stay
// within each referenced field's storage.
func checkBounds(b *Block, env expr.Env) error {
	check := func(r expr.ArrayRef, si int) error {
		f := env.Array(r.Name)
		if f == nil {
			return fmt.Errorf("scan: statement %d: array %q is unbound", si, r.Name)
		}
		reg := b.Region
		if r.Shift != nil {
			var err error
			reg, err = reg.Shift(r.Shift)
			if err != nil {
				return fmt.Errorf("scan: statement %d: %s: %w", si, r, err)
			}
		}
		if !f.Bounds().ContainsRegion(reg) {
			return fmt.Errorf("scan: statement %d: reference %s reads %v outside bounds %v of %q",
				si, r, reg, f.Bounds(), r.Name)
		}
		return nil
	}
	for si, s := range b.Stmts {
		if err := check(s.LHS, si); err != nil {
			return err
		}
		for _, r := range expr.Refs(s.RHS) {
			if err := check(r, si); err != nil {
				return err
			}
		}
	}
	return nil
}

// execFused runs the block's statements in a single fused loop nest with
// the analysis's loop structure, reading and writing fields in place. The
// analysis's UDVs feed the kernel build so the dependence walk runs once.
func execFused(b *Block, env expr.Env, an *Analysis, opt ExecOptions) error {
	if opt.Scheduler == SchedTaskDAG {
		return execTaskGraph([]*Block{b}, []*Analysis{an}, env, opt)
	}
	k, err := NewKernelDeps(b, env, an.UDVs)
	if err != nil {
		return err
	}
	k.SetEngine(opt.Engine)
	k.Instrument(opt.Trace, opt.TraceRank)
	k.SetMetrics(opt.Metrics, opt.MetricsRank)
	k.Run(b.Region, an.Loop)
	return nil
}

// execViaTemp evaluates each statement's right-hand side into a fresh
// temporary over the region and then assigns, implementing the pure array
// semantics directly.
func execViaTemp(b *Block, env expr.Env, opt ExecOptions) error {
	var t0 int64
	if opt.Trace != nil {
		t0 = opt.Trace.Now()
	}
	for _, s := range b.Stmts {
		dst := env.Array(s.LHS.Name)
		tmp, err := field.New("tmp$"+s.LHS.Name, b.Region, dst.Layout())
		if err != nil {
			return err
		}
		rhs, err := expr.Compile(s.RHS, env)
		if err != nil {
			return err
		}
		b.Region.Each(nil, func(p grid.Point) {
			tmp.Set(p, rhs(p))
		})
		b.Region.Each(nil, func(p grid.Point) {
			dst.Set(p, tmp.At(p))
		})
	}
	if opt.Trace != nil {
		ev := trace.Ev(trace.KindKernel, opt.TraceRank, t0, opt.Trace.Now())
		ev.Elems = b.Region.Size() * len(b.Stmts)
		opt.Trace.Record(ev)
	}
	return nil
}

func allRank2(b *Block, env expr.Env) bool {
	ok := true
	for _, s := range b.Stmts {
		if f := env.Array(s.LHS.Name); f == nil || f.Rank() != 2 {
			return false
		}
		for _, r := range expr.Refs(s.RHS) {
			if f := env.Array(r.Name); f == nil || f.Rank() != 2 {
				ok = false
			}
		}
	}
	return ok
}

// forEach iterates the region with the loop structure: spec.Perm[0] is the
// outermost dimension and spec.Dirs is indexed by dimension. The point
// passed to fn is reused across calls.
func forEach(r grid.Region, spec dep.LoopSpec, fn func(grid.Point)) {
	for d := 0; d < r.Rank(); d++ {
		if r.Dim(d).Empty() {
			return
		}
	}
	p := make(grid.Point, r.Rank())
	forEachLevel(r, spec, 0, p, fn)
}

func forEachLevel(r grid.Region, spec dep.LoopSpec, lvl int, p grid.Point, fn func(grid.Point)) {
	if lvl == len(spec.Perm) {
		fn(p)
		return
	}
	dim := spec.Perm[lvl]
	d := r.Dim(dim)
	n := d.Size()
	if spec.Dirs[dim] == grid.LowToHigh {
		for i := 0; i < n; i++ {
			p[dim] = d.Lo + i*d.Stride
			forEachLevel(r, spec, lvl+1, p, fn)
		}
	} else {
		for i := n - 1; i >= 0; i-- {
			p[dim] = d.Lo + i*d.Stride
			forEachLevel(r, spec, lvl+1, p, fn)
		}
	}
}
