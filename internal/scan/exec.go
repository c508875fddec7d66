package scan

import (
	"fmt"

	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/grid"
	"wavefront/internal/metrics"
	"wavefront/internal/trace"
)

// ExecOptions controls serial block execution.
type ExecOptions struct {
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
// statement with ordinary array semantics. It is Prepare, one Run and
// Close, so no task-DAG worker outlives it; a caller that executes the
// block again holds the Prepared instead.
func Exec(b *Block, env expr.Env, opt ExecOptions) error {
	p, err := Prepare(b, env, opt)
	if err != nil {
		return err
	}
	defer p.Close()
	return p.Run(b.Region)
}

// CheckBounds verifies that the covering region and every shifted read stay
// within each referenced field's storage. It is exported for the parallel
// runtime, which performs the same validation against the global fields
// before decomposing.
func CheckBounds(b *Block, env expr.Env) error {
	return checkBounds(b.Stmts, refsOf(b.Stmts), b.Region, env)
}

// checkBounds verifies that region and every shifted read of it stay within
// each referenced field's storage.
func checkBounds(stmts []Stmt, refs stmtRefs, region grid.Region, env expr.Env) error {
	check := func(r expr.ArrayRef, si int) error {
		f := env.Array(r.Name)
		if f == nil {
			return fmt.Errorf("scan: statement %d: array %q is unbound", si, r.Name)
		}
		reg := region
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
	for si, s := range stmts {
		if err := check(s.LHS, si); err != nil {
			return err
		}
		for _, r := range refs.of(si) {
			if err := check(r, si); err != nil {
				return err
			}
		}
	}
	return nil
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
