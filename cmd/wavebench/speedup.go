package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"wavefront"
	"wavefront/internal/field"
	"wavefront/internal/metrics"
	"wavefront/internal/workload"
)

// runSpeedup demonstrates the task-DAG scheduler's in-rank parallelism: the
// Tomcatv forward elimination timed three ways — the serial kernel (the
// base every ratio is taken against), a warm single-rank session under the
// DAG at 1 worker, and again at `workers` workers. With one rank there is
// no pipeline overlap to confound the measurement, and inside a session
// there is no scatter or gather — any speedup comes from tiles of the same
// portion executing concurrently on the pool. The two DAG legs receive
// different automatic tile geometries (the span dimension is cut into as
// many chunks as the pool has workers), so each leg prints its tiles per
// sweep and span-dimension tile width next to its time. Identical instances
// differ by tens of percent in where their arrays and goroutines happen to
// land, so each leg reports the median sweep pooled over several fresh
// instances, each warmed by one discarded sweep (which compiles the kernel
// and builds the portion graph).
func runSpeedup(n, block, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	const instances, sweeps = 5, 10
	type leg struct {
		name             string
		median           time.Duration
		tiles, spanWidth int
	}
	// timed appends the times of `sweeps` sweeps after one discarded
	// warm-up sweep.
	timed := func(samples []time.Duration, sweep func() error) ([]time.Duration, error) {
		for i := 0; i <= sweeps; i++ {
			t0 := time.Now()
			if err := sweep(); err != nil {
				return samples, err
			}
			if i > 0 {
				samples = append(samples, time.Since(t0))
			}
		}
		return samples, nil
	}
	timeLeg := func(name string, w int) (leg, error) {
		l := leg{name: name}
		var samples []time.Duration
		for inst := 0; inst < instances; inst++ {
			t, err := workload.NewTomcatv(n, field.RowMajor)
			if err != nil {
				return l, err
			}
			blk := t.ForwardBlock()
			if w == 0 {
				l.tiles, l.spanWidth = 1, blk.Region.Dim(blk.Region.Rank()-1).Size()
				if samples, err = timed(samples, func() error { return wavefront.Exec(blk, t.Env) }); err != nil {
					return l, err
				}
				continue
			}
			reg := wavefront.NewMetrics(1)
			sess, err := wavefront.NewSession(t.Env, []*wavefront.Block{blk}, wavefront.SessionConfig{
				Procs: 1, Domain: t.All, Block: block,
				Scheduler: wavefront.SchedTaskDAG, Workers: w, Metrics: reg})
			if err != nil {
				return l, err
			}
			err = sess.Run(func(r *wavefront.Rank) error {
				samples, err = timed(samples, func() error { return r.Exec(blk) })
				return err
			})
			sess.Close()
			if err != nil {
				return l, err
			}
			l.tiles = int(reg.Counter(metrics.TaskTiles).Value()) / (sweeps + 1)
			l.spanWidth = int(reg.Gauge(metrics.TaskSpanWidth).Value())
		}
		slices.Sort(samples)
		l.median = samples[len(samples)/2]
		return l, nil
	}
	legs := make([]leg, 0, 3)
	for _, c := range []struct {
		name string
		w    int
	}{{"serial kernel", 0}, {"taskdag workers=1", 1}, {fmt.Sprintf("taskdag workers=%d", workers), workers}} {
		l, err := timeLeg(c.name, c.w)
		if err != nil {
			return err
		}
		legs = append(legs, l)
	}
	fmt.Printf("taskdag speedup: tomcatv forward n=%d procs=1 (median of %d sweeps over %d instances, %d CPUs)\n",
		n, instances*sweeps, instances, runtime.NumCPU())
	fmt.Printf("  %-20s %12s %10s %12s %11s\n", "leg", "time", "vs serial", "tiles/sweep", "span width")
	for _, l := range legs {
		fmt.Printf("  %-20s %12v %9.2fx %12d %11d\n", l.name, l.median,
			float64(legs[0].median)/float64(l.median), l.tiles, l.spanWidth)
	}
	return nil
}
