package scan

import (
	"fmt"

	"wavefront/internal/bufpool"
	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/kernel"
	"wavefront/internal/metrics"
	"wavefront/internal/trace"
)

// Engine selects the kernel execution strategy.
type Engine int8

const (
	// EngineTape (the default) executes lowered instruction tapes over
	// whole inner-loop spans where the dependences allow, over skewed
	// hyperplane runs when every dimension carries a dependence but a
	// legal skew exists, and point by point otherwise. Blocks the lowerer
	// refuses (dependences that do not collect, fields of another rank
	// than the region) run on the per-point closures and tally Closure;
	// an unbound name is a construction error, not a fallback.
	EngineTape Engine = iota
	// EngineClosure forces the per-point compiled-closure reference path.
	EngineClosure
	// EngineScalar forces the point walk — the tape executed one point at a
	// time in the derived loop order, with span and skewed execution
	// disabled. It is the baseline the vector orders are measured against.
	EngineScalar
)

// pathClosure extends kernel.Path — how a lowered Program walked its tape
// — with the one executor the kernel package does not own: the compiled
// closures — the reference engine, and the fallback for blocks the lowerer
// refuses.
const (
	pathClosure = kernel.PathSkewed + 1
	numPaths    = int(pathClosure) + 1
)

// PathCounts tallies, per executor path, how many statement-runs a kernel
// (or an accumulation of kernels) performed: each Run adds the block's
// statement count to the path it took.
type PathCounts struct {
	Span, Skewed, Scalar, Closure int64
}

// Add accumulates o into c.
func (c *PathCounts) Add(o PathCounts) {
	c.Span += o.Span
	c.Skewed += o.Skewed
	c.Scalar += o.Scalar
	c.Closure += o.Closure
}

// Total sums every path.
func (c PathCounts) Total() int64 { return c.Span + c.Skewed + c.Scalar + c.Closure }

func (c PathCounts) String() string {
	return fmt.Sprintf("span=%d skewed=%d scalar=%d closure=%d", c.Span, c.Skewed, c.Scalar, c.Closure)
}

// Kernel is a block compiled against a concrete environment: the statement
// right-hand sides are specialized to their fields and the destinations are
// resolved. A Kernel can run repeatedly over different sub-regions, which
// is how the pipelined runtime executes one tile at a time without
// recompiling.
type Kernel struct {
	engine Engine
	// Tracing (nil = disabled): every Run records one fused-loop span.
	tr     *trace.Recorder
	trRank int
	// Path accounting, indexed by kernel.Path (pathClosure last): paths
	// tallies locally (always on — one int64 add per tile); the resolved
	// counters (nil = disabled) publish to a metrics registry under mRank's
	// shard.
	paths [numPaths]int64
	mPath [numPaths]*metrics.Counter
	mRank int
	// stmts is the block's statement count, what each Run tallies.
	stmts int64
	// Tape engine (nil when the block could not be lowered).
	prog *kernel.Program
	// Per-point closure path (both nil on a kernel that runs its tape, which
	// reaches its fields through prog alone).
	dst []*field.Field
	rhs []expr.Compiled
}

// NewKernel compiles the block's statements against env for the tape engine.
// Scalars are captured at compile time. The dependence summary is
// recollected here; a caller holding a fresh Analysis should use
// NewKernelDeps to avoid the duplicate walk.
func NewKernel(b *Block, env expr.Env) (*Kernel, error) {
	refs := refsOf(b.Stmts)
	k := &Kernel{}
	// A block whose dependences don't collect would fail Analyze before
	// ever running; compile the closure path anyway so construction stays
	// total, with the tape unavailable.
	udvs, _, err := collectDeps(b, refs)
	if err := k.init(b, env, udvs, err == nil, EngineTape); err != nil {
		return nil, err
	}
	return k, nil
}

// NewKernelDeps compiles the block like NewKernel but reuses the UDVs of a
// prior Analyze (Analysis.UDVs) instead of recollecting them, so the span
// legality the tape derives matches the loop derivation exactly.
func NewKernelDeps(b *Block, env expr.Env, udvs []dep.UDV) (*Kernel, error) {
	k := &Kernel{}
	if err := k.init(b, env, udvs, true, EngineTape); err != nil {
		return nil, err
	}
	return k, nil
}

// init compiles b's statements into the zero Kernel k for engine e; only
// the rank of b's region is read. It builds what e runs and nothing else:
// the tape, or the per-point closures for EngineClosure and for a block the
// tape refuses (lower false, or a lowering failure: not an error — the
// closures are the always-correct reference; selecting a tape engine for
// such a block is a no-op). Whatever the closure compiler refuses (an
// unbound name, a shift of the wrong rank, a bad call) the lowerer refuses
// too, so a block that cannot run at all still fails here, with the closure
// compiler's error.
func (k *Kernel) init(b *Block, env expr.Env, udvs []dep.UDV, lower bool, e Engine) error {
	ns := len(b.Stmts)
	k.engine, k.stmts = e, int64(ns)
	if lower && e != EngineClosure {
		if prog, err := kernel.Lower(b.Region.Rank(), b.Stmts, env, udvs); err == nil {
			k.prog = prog
			return nil
		}
	}
	k.dst, k.rhs = make([]*field.Field, ns), make([]expr.Compiled, ns)
	for i, s := range b.Stmts {
		k.dst[i] = env.Array(s.LHS.Name)
		c, err := expr.Compile(s.RHS, env)
		if err != nil {
			return err
		}
		k.rhs[i] = c
	}
	return nil
}

// SetScratch routes the tape engine's register leases through pool under
// the given pool rank. A nil pool (the default) allocates plainly.
func (k *Kernel) SetScratch(pool *bufpool.Pool, rank int) {
	if k.prog != nil {
		k.prog.SetScratch(pool, rank)
	}
}

// ReleaseScratch returns pooled registers; the next Run re-leases them.
func (k *Kernel) ReleaseScratch() {
	if k.prog != nil {
		k.prog.ReleaseScratch()
	}
}

// Rebind points a tape kernel at env's arrays in place, without allocating
// (kernel.Program.Rebind); a nil env drops every field reference, so a kept
// kernel pins no storage. It reports false — build the kernel again — for a
// kernel that runs closures, which bake their fields in, or a tape the new
// fields do not fit. The scalars the kernel captured are the caller's to
// check (Captured).
func (k *Kernel) Rebind(env expr.Env) bool { return k.prog != nil && k.prog.Rebind(env) }

// Instrument makes every Run record a fused-loop span to tr under the
// given rank. A nil recorder disables tracing (the default).
func (k *Kernel) Instrument(tr *trace.Recorder, rank int) {
	k.tr = tr
	k.trRank = rank
}

// Run executes the fused statements over region in the given loop order.
// The region must lie within every referenced field's bounds (the caller
// checks once, up front).
func (k *Kernel) Run(region grid.Region, loop dep.LoopSpec) {
	if k.tr != nil {
		t0 := k.tr.Now()
		k.run(region, loop)
		ev := trace.Ev(trace.KindKernel, k.trRank, t0, k.tr.Now())
		ev.Elems = region.Size()
		k.tr.Record(ev)
		return
	}
	k.run(region, loop)
}

func (k *Kernel) run(region grid.Region, loop dep.LoopSpec) {
	switch {
	case k.prog != nil && k.engine == EngineScalar:
		k.prog.RunScalar(region, loop)
		k.tally(kernel.PathScalar)
	case k.prog != nil && k.engine == EngineTape:
		k.tally(k.prog.Run(region, loop))
	default:
		forEach(region, loop, func(p grid.Point) {
			for i := range k.rhs {
				k.dst[i].Set(p, k.rhs[i](p))
			}
		})
		k.tally(pathClosure)
	}
}

// tally records which executor path a Run took, one count per statement.
func (k *Kernel) tally(p kernel.Path) {
	k.paths[p] += k.stmts
	k.mPath[p].Add(k.mRank, k.stmts)
}

// PathCounts returns the kernel's local executor-path tally.
func (k *Kernel) PathCounts() PathCounts {
	return PathCounts{
		Span:    k.paths[kernel.PathSpan],
		Skewed:  k.paths[kernel.PathSkewed],
		Scalar:  k.paths[kernel.PathScalar],
		Closure: k.paths[pathClosure],
	}
}

// SetMetrics publishes the kernel's path tallies to reg's kernel_path
// counters under rank's shard (resolved once here, per the registry's
// attach-time rule). A nil registry disables publication.
func (k *Kernel) SetMetrics(reg *metrics.Registry, rank int) {
	k.mPath[kernel.PathSpan] = reg.Counter(metrics.KernelPathSpan)
	k.mPath[kernel.PathSkewed] = reg.Counter(metrics.KernelPathSkewed)
	k.mPath[kernel.PathScalar] = reg.Counter(metrics.KernelPathScalar)
	k.mPath[pathClosure] = reg.Counter(metrics.KernelPathClosure)
	k.mRank = rank
}
