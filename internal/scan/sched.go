package scan

import (
	"fmt"

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
// in-place loop order does.
type TaskGraph struct {
	g       *taskdag.Graph
	kernels []*Kernel // spec-major: spec sub's kernel for worker w is kernels[sub*Workers+w]
}

// NewTaskGraph builds the merged graph of specs under opt (its OrderSeed
// belongs to the test hook) and calls newKernel(sub, worker) once for every
// spec and worker: a fresh kernel, or one the caller kept from an earlier
// graph of the same block. Kernels may share a mutex-guarded scratch pool
// shard: each leases its own registers, so concurrent first runs are safe.
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

// Close retires the pool's goroutines and returns leased tape registers.
// The graph cannot Run afterwards.
func (tg *TaskGraph) Close() {
	tg.g.Stop()
	for _, k := range tg.kernels {
		k.ReleaseScratch()
	}
}

// runTaskGraph runs prepared in-place nests — one, or a group of mutually
// independent scan blocks — over their regions under the task-DAG scheduler
// as one TaskGraph, built for these regions and closed after the run, and
// records the whole run as one kernel span. The nests share one set of
// options; each supplies its own per-worker kernels.
func runTaskGraph(parts []*part, regions []grid.Region) error {
	opt := &parts[0].p.opt
	specs := make([]taskdag.Spec, len(parts))
	elems := 0
	for i, pt := range parts {
		specs[i] = taskdag.Spec{Region: regions[i], Loop: pt.an.Loop, UDVs: pt.an.UDVs}
		elems += regions[i].Size() * len(pt.blk.Stmts)
	}
	tg, err := NewTaskGraph(specs, taskdag.Options{
		Workers:   opt.Workers,
		Trace:     opt.Trace,
		TraceBase: opt.TraceRank,
	}, func(sub, worker int) (*Kernel, error) { return parts[sub].worker(worker) })
	if err != nil {
		return err
	}
	defer tg.Close()
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
	return nil
}
