package scan

import (
	"fmt"

	"wavefront/internal/expr"
	"wavefront/internal/grid"
	"wavefront/internal/taskdag"
	"wavefront/internal/trace"
)

// Scheduler selects how a block's iteration space is executed.
type Scheduler int

const (
	// SchedStatic is the default: the derived serial loop nest (and, under
	// the parallel runtime, the static pipeline schedule).
	SchedStatic Scheduler = iota
	// SchedTaskDAG decomposes the region into tiles with dependency
	// counters and executes ready tiles on a goroutine pool (see
	// internal/taskdag).
	SchedTaskDAG
)

// String names the scheduler as the -sched flag spells it.
func (s Scheduler) String() string {
	switch s {
	case SchedStatic:
		return "static"
	case SchedTaskDAG:
		return "taskdag"
	}
	return fmt.Sprintf("Scheduler(%d)", int(s))
}

// ParseScheduler parses a -sched flag value.
func ParseScheduler(s string) (Scheduler, error) {
	switch s {
	case "static", "":
		return SchedStatic, nil
	case "taskdag":
		return SchedTaskDAG, nil
	}
	return SchedStatic, fmt.Errorf("scan: unknown scheduler %q (want static or taskdag)", s)
}

// Test hooks, read at graph-build time: taskdagOrderSeed is the OrderSeed of
// every graph NewTaskGraph builds, and taskdagHook observes each graph after
// construction (the intentional-break battery corrupts counters through
// it). Production code never sets either.
var (
	taskdagOrderSeed int64
	taskdagHook      func(*taskdag.Graph)
)

// SetTaskDAGHook installs a fault-injection observer called with every task
// graph NewTaskGraph builds — in this package's Exec and ExecGroup and in
// the parallel runtime's ranks — and returns a restore func. It exists for
// the intentional-break test batteries (corrupting a counter through
// taskdag.Graph.CorruptCounter). Not safe for concurrent Exec calls.
func SetTaskDAGHook(fn func(*taskdag.Graph)) (restore func()) {
	prev := taskdagHook
	taskdagHook = fn
	return func() { taskdagHook = prev }
}

// SetTaskDAGOrderSeed makes every later task graph pop its ready tiles in
// the pseudo-random order of seed (taskdag.Options.OrderSeed; zero restores
// LIFO) and returns a restore func: the schedule-order fuzz batteries' hook,
// under SetTaskDAGHook's contract.
func SetTaskDAGOrderSeed(seed int64) (restore func()) {
	prev := taskdagOrderSeed
	taskdagOrderSeed = seed
	return func() { taskdagOrderSeed = prev }
}

// TaskGraph is the task-DAG scheduler's executor: the tile DAG of one or
// more blocks' regions on one pool, with one kernel per (spec, worker) — a
// compiled tape owns mutable scratch registers, so workers cannot share a
// kernel. The graph's edges come from the same UDVs as each block's loop
// derivation, so the dynamic schedule satisfies exactly the dependences the
// in-place loop order does. A caller that runs the blocks again keeps the
// TaskGraph: Recut follows a new region, Rebind new fields.
type TaskGraph struct {
	g       *taskdag.Graph
	kernels []*Kernel // spec-major: spec sub's kernel for worker w is kernels[sub*Workers+w]
}

// NewTaskGraph builds the merged graph of specs under opt (its OrderSeed
// belongs to the test hook) and calls newKernel(sub, worker) once for every
// spec and worker. Kernels may share a mutex-guarded scratch pool shard:
// each leases its own registers, so concurrent first runs are safe.
func NewTaskGraph(specs []taskdag.Spec, opt taskdag.Options, newKernel func(sub, worker int) (*Kernel, error)) (*TaskGraph, error) {
	opt.OrderSeed = taskdagOrderSeed
	g, err := taskdag.NewMulti(specs, opt)
	if err != nil {
		return nil, err
	}
	W := g.Workers()
	tg := &TaskGraph{g: g, kernels: make([]*Kernel, len(specs)*W)}
	for i := range tg.kernels {
		if tg.kernels[i], err = newKernel(i/W, i%W); err != nil {
			g.Stop()
			return nil, err
		}
	}
	if len(specs) == 1 {
		g.SetRunner(func(worker int, tile grid.Region) {
			tg.kernels[worker].Run(tile, g.Loop(0))
		})
	} else {
		g.SetRunnerSub(func(worker, sub int, tile grid.Region) {
			tg.kernels[sub*W+worker].Run(tile, g.Loop(sub))
		})
	}
	if taskdagHook != nil {
		taskdagHook(g)
	}
	return tg, nil
}

// Run executes every tile once; allocation-free after the first call.
func (tg *TaskGraph) Run() { tg.g.Run() }

// Recut cuts the graph again over regions, one per spec
// (taskdag.Graph.Recut); the kernels stay.
func (tg *TaskGraph) Recut(regions []grid.Region) error { return tg.g.Recut(regions) }

// Rebind points every kernel at env's arrays in place (Kernel.Rebind); a
// nil env drops every field reference. It reports false — build the graph
// again — when a kernel cannot follow.
func (tg *TaskGraph) Rebind(env expr.Env) bool {
	for _, k := range tg.kernels {
		if !k.Rebind(env) {
			return false
		}
	}
	return true
}

// ReleaseScratch returns the kernels' pool-leased registers; the next Run
// leases them again.
func (tg *TaskGraph) ReleaseScratch() {
	for _, k := range tg.kernels {
		k.ReleaseScratch()
	}
}

// Close retires the graph — and its pool when the graph started the pool
// itself — and returns leased registers. The graph cannot Run afterwards.
func (tg *TaskGraph) Close() {
	tg.g.Stop()
	tg.ReleaseScratch()
}

// newTaskGraph builds the graph of prepared in-place nests — one, or a
// group of mutually independent scan blocks — over their regions on pool
// (nil: a pool of the graph's own), with every worker's kernel compiled
// under the nests' one set of options.
func newTaskGraph(parts []*part, regions []grid.Region, pool *taskdag.Pool) (*TaskGraph, error) {
	opt := &parts[0].p.opt
	specs := make([]taskdag.Spec, len(parts))
	for i, pt := range parts {
		specs[i] = taskdag.Spec{Region: regions[i], Loop: pt.an.Loop, UDVs: pt.an.UDVs}
	}
	return NewTaskGraph(specs, taskdag.Options{
		Pool:      pool,
		Workers:   opt.Workers,
		Trace:     opt.Trace,
		TraceBase: opt.TraceRank,
	}, func(sub, _ int) (*Kernel, error) {
		k := &Kernel{}
		return k, parts[sub].build(k)
	})
}

// runSpan runs the graph once and records the run as one kernel span of
// elems statement-points.
func (tg *TaskGraph) runSpan(opt *ExecOptions, elems int) {
	var t0 int64
	if opt.Trace != nil {
		t0 = opt.Trace.Now()
	}
	tg.Run()
	if opt.Trace != nil {
		ev := trace.Ev(trace.KindKernel, opt.TraceRank, t0, opt.Trace.Now())
		ev.Elems = elems
		opt.Trace.Record(ev)
	}
}
