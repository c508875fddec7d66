package pipeline

import (
	"runtime"

	"wavefront/internal/grid"
	"wavefront/internal/scan"
	"wavefront/internal/taskdag"
)

// Test hooks for the task-DAG scheduler, mirroring the scan package's:
// taskdagStealSeed seeds the steal-order perturbation of every portion
// graph, and taskdagHook observes each graph right after construction (the
// intentional-break battery corrupts dependency counters through it). Both
// are read at graph-build time by same-package tests only.
var (
	taskdagStealSeed int64
	taskdagHook      func(*taskdag.Graph)
)

// resolveWorkers turns a config's Workers field into the actual pool size.
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// taskTraceBase returns the first trace ring a rank's DAG workers may
// write. Rings 0..procs-1 belong to the ranks themselves; each rank then
// owns a block of `workers` rings. Worker 0 is the rank's own goroutine,
// so its ring (taskTraceBase+0) never races the rank ring (the rank writes
// both, from one goroutine).
func taskTraceBase(procs, rank, workers int) int {
	return procs + rank*workers
}

// portionDAG is one rank's cached task-DAG executor for one block: the
// tile dependence graph over the rank's portion plus one kernel per pool
// worker (a compiled tape carries mutable scratch registers, so kernels
// must not be shared across goroutines).
type portionDAG struct {
	g       *taskdag.Graph
	kernels []*scan.Kernel
}

// newPortionDAG builds the graph and per-worker kernels for a block's
// portion. The graph's edges come from the same UDVs as the block's loop
// derivation, so the dynamic schedule satisfies exactly the dependences
// the static schedule does. Workers share the rank's pool shard; the shard
// is mutex-guarded, and each kernel leases its own registers, so
// concurrent first runs are safe.
func (r *Rank) newPortionDAG(b *scan.Block, pl *plan, L grid.Region) (*portionDAG, error) {
	g, err := taskdag.New(L, pl.an.Loop, pl.an.UDVs, r.dagOptions())
	if err != nil {
		return nil, err
	}
	pd := &portionDAG{g: g, kernels: make([]*scan.Kernel, g.Workers())}
	for i := range pd.kernels {
		if pd.kernels[i], err = r.newKernel(b, pl); err != nil {
			g.Stop()
			return nil, err
		}
	}
	loop := pl.an.Loop
	g.SetRunner(func(worker int, tile grid.Region) {
		pd.kernels[worker].Run(tile, loop)
	})
	if taskdagHook != nil {
		taskdagHook(g)
	}
	return pd, nil
}

// dagOptions wires a rank's task graphs to the session's pool size, trace
// rings and registry.
func (r *Rank) dagOptions() taskdag.Options {
	s := r.sess
	return taskdag.Options{
		Workers:     s.workers,
		Trace:       s.cfg.Trace,
		TraceBase:   taskTraceBase(s.cfg.Procs, r.id, s.workers),
		Metrics:     s.cfg.Metrics,
		MetricsRank: r.id,
		StealSeed:   taskdagStealSeed,
	}
}

// run executes the portion once; allocation-free after the first call.
func (pd *portionDAG) run() { pd.g.Run() }

// close retires the pool goroutines and returns leased tape registers.
func (pd *portionDAG) close() {
	pd.g.Stop()
	for _, k := range pd.kernels {
		k.ReleaseScratch()
	}
}
