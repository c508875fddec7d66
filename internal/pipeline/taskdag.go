package pipeline

import (
	"runtime"

	"wavefront/internal/grid"
	"wavefront/internal/scan"
	"wavefront/internal/taskdag"
	"wavefront/internal/trace"
)

// resolveWorkers turns a config's Workers field into the actual pool size.
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// taskGraphFor returns the rank's cached task-DAG executor for b over its
// portion L, building it on the Run's first use or after a scalar its
// kernels read changed (Rank.block): the tile graph on the session's pool
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
			TraceBase:   trace.Layout{Procs: s.cfg.Procs, Workers: s.workers}.WorkerBase(r.id),
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
	pl.ranks[r.id].builds++
	return tg, nil
}
