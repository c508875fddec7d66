package pipeline

import (
	"runtime"

	"wavefront/internal/grid"
	"wavefront/internal/scan"
	"wavefront/internal/taskdag"
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

// taskGraphFor returns the rank's cached task-DAG executor for b over its
// portion L, building it on first use: the tile graph on the session's pool
// size, trace rings and registry, with a Rank.newKernel per worker (they
// share the rank's scratch pool shard).
func (r *Rank) taskGraphFor(b *scan.Block, pl *plan, L grid.Region) (*scan.TaskGraph, error) {
	if tg, ok := r.dags[b]; ok {
		return tg, nil
	}
	s := r.sess
	tg, err := scan.NewTaskGraph(
		[]taskdag.Spec{{Region: L, Loop: pl.an.Loop, UDVs: pl.an.UDVs}},
		taskdag.Options{
			Workers:     s.workers,
			Trace:       s.cfg.Trace,
			TraceBase:   taskTraceBase(s.cfg.Procs, r.id, s.workers),
			Metrics:     s.cfg.Metrics,
			MetricsRank: r.id,
		},
		func(int, int) (*scan.Kernel, error) { return r.newKernel(b, pl) })
	if err != nil {
		return nil, err
	}
	if r.dags == nil {
		r.dags = map[*scan.Block]*scan.TaskGraph{}
	}
	r.dags[b] = tg
	return tg, nil
}
