package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"wavefront"
	"wavefront/internal/metrics"
	"wavefront/internal/trace"
)

// The traced run. End-to-end metrics never come from here: it repeats the
// workload at a fifth of the length with the driver's span recorder and the
// program's public observers on, beside an equally long pass with them off
// (the difference is the tracing overhead, reported and not subtracted),
// then runs the layer probes. Every time here is as measured, without the
// host-speed reference: per-layer numbers are read as shares and ratios
// whose two sides run back to back in one process.

// observedNames are the per-layer metrics read from the observers attached
// to the workload's own ops. On a workload whose ops never enter a layer
// the layer's rows read 0: no messages on a serial kernel workload, no
// steals under the static schedule.
var observedNames = []string{
	"pipeline.scatter_gather_us", "pipeline.waves_us", "pipeline.fill_us", "pipeline.drain_us",
	"pipeline.overlap", "pipeline.busy_share", "pipeline.wait_share", "pipeline.comm_share",
	"pipeline.tiles_per_op", "pipeline.waves_per_op", "pipeline.speedup_vs_serial",
	"pipeline.model_drift_ratio", "pipeline.eq1_block", "pipeline.run_p99_us",
	"comm.msgs_per_op", "comm.bytes_per_op", "comm.blocked_wait_share",
	"taskdag.steals_per_op", "taskdag.parks_per_op",
	"bufpool.hit_ratio", "ckpt.snapshots_per_op",
	"kernel.path_span_share", "kernel.path_skewed_share", "kernel.path_scalar_share", "kernel.path_closure_share",
	"trace.events_per_op", "trace.dropped_events", "bench.trace_overhead_ratio",
}

// harvest accumulates what the observers report chunk by chunk.
type harvest struct {
	scatterGather, elapsed, fill, drain []int64
	overlap, busy, wait, comm           []float64
	messages, elements                  int64
	events                              int
	dropped                             int64
	last                                runStats
}

// chunk folds one finished chunk's observers in and returns its events.
func (h *harvest) chunk(in *instance) []wavefront.TraceEvent {
	events := in.trace.Events()
	h.events += len(events)
	h.dropped += in.trace.Dropped()
	// Scatter and gather, max over ranks: the ranks copy in parallel.
	perRank := map[int]int64{}
	for _, ev := range events {
		if ev.Kind == trace.KindScatter || ev.Kind == trace.KindGather {
			perRank[ev.Rank] += ev.End - ev.Start
		}
	}
	var sg int64
	for _, v := range perRank {
		if v > sg {
			sg = v
		}
	}
	st := in.last
	h.last = st
	h.messages += st.messages
	h.elements += st.elements
	if st.elapsed > 0 {
		h.scatterGather = append(h.scatterGather, sg)
		h.elapsed = append(h.elapsed, st.elapsed.Nanoseconds())
	}
	if s := st.summary; s != nil && s.Wall > 0 {
		h.fill = append(h.fill, s.Fill.Nanoseconds())
		h.drain = append(h.drain, s.Drain.Nanoseconds())
		h.overlap = append(h.overlap, s.Overlap)
		var busy, wait, comm time.Duration
		for _, r := range s.Ranks {
			busy, wait, comm = busy+r.Busy, wait+r.Wait, comm+r.Comm
		}
		whole := float64(s.Wall) * float64(len(s.Ranks))
		h.busy = append(h.busy, float64(busy)/whole)
		h.wait = append(h.wait, float64(wait)/whole)
		h.comm = append(h.comm, float64(comm)/whole)
	}
	return events
}

// counterTotals reads the registry's cumulative counters (nil-safe).
func counterTotals(reg *wavefront.Metrics) map[string]int64 {
	out := map[string]int64{}
	if reg == nil {
		return out
	}
	for name, c := range reg.Snapshot().Counters {
		out[name] = c.Total
	}
	return out
}

// observed derives the workload-observed metrics of a traced pass.
func observed(in *instance, p, untraced pass, h *harvest, c0, c1 map[string]int64) []metric {
	untracedP50 := quantile(untraced.samples, 0.5)
	ops := float64(len(p.samples))
	n := len(p.samples)
	delta := func(name string) float64 { return float64(c1[name] - c0[name]) }
	v := map[string]float64{}
	// Scatter, gather and the parallel section are per run call; a chunked
	// workload spreads them over its chunk.
	perOp := 1e3 * float64(in.chunk)
	sg := quantile(h.scatterGather, 0.5)
	v["pipeline.scatter_gather_us"] = sg / perOp
	if el := quantile(h.elapsed, 0.5); el > 0 {
		v["pipeline.waves_us"] = (el - sg) / perOp
	}
	v["pipeline.fill_us"] = quantile(h.fill, 0.5) / 1e3
	v["pipeline.drain_us"] = quantile(h.drain, 0.5) / 1e3
	v["pipeline.overlap"] = medianFloat(h.overlap)
	v["pipeline.busy_share"] = medianFloat(h.busy)
	v["pipeline.wait_share"] = medianFloat(h.wait)
	v["pipeline.comm_share"] = medianFloat(h.comm)
	v["pipeline.tiles_per_op"] = delta(metrics.PipeTiles) / ops
	v["pipeline.waves_per_op"] = delta(metrics.PipeWaves) / ops
	if in.serialNs > 0 {
		v["pipeline.speedup_vs_serial"] = in.serialNs / untracedP50
	}
	if d := h.last.drift; d != nil {
		v["pipeline.model_drift_ratio"] = d.DriftRatio
		v["pipeline.eq1_block"] = float64(d.OptimalBlock)
	}
	v["pipeline.run_p99_us"] = quantile(untraced.samples, 0.99) / 1e3
	v["comm.msgs_per_op"] = float64(h.messages) / ops
	v["comm.bytes_per_op"] = float64(h.elements) * 8 / ops
	var wall int64
	for _, s := range p.samples {
		wall += s
	}
	v["comm.blocked_wait_share"] = delta(metrics.CommBlockedNs) / (procs * float64(wall))
	v["taskdag.steals_per_op"] = delta(metrics.TaskSteals) / ops
	v["taskdag.parks_per_op"] = delta(metrics.TaskParks) / ops
	if h.last.pool != nil {
		v["bufpool.hit_ratio"] = h.last.pool.HitRatio()
	}
	v["ckpt.snapshots_per_op"] = delta(metrics.CkptSnapshots) / ops
	paths := map[string]float64{
		"kernel.path_span_share":    delta(metrics.KernelPathSpan),
		"kernel.path_skewed_share":  delta(metrics.KernelPathSkewed),
		"kernel.path_scalar_share":  delta(metrics.KernelPathScalar),
		"kernel.path_closure_share": delta(metrics.KernelPathClosure),
	}
	total := 0.0
	for _, c := range paths {
		total += c
	}
	for name, c := range paths {
		if total > 0 {
			v[name] = c / total
		}
	}
	v["trace.events_per_op"] = float64(h.events) / ops
	v["trace.dropped_events"] = float64(h.dropped)
	v["bench.trace_overhead_ratio"] = quantile(p.samples, 0.5) / untracedP50

	units := map[string]string{"pipeline.tiles_per_op": "count", "pipeline.waves_per_op": "count",
		"pipeline.eq1_block": "count", "comm.msgs_per_op": "count", "comm.bytes_per_op": "B",
		"taskdag.steals_per_op": "count", "taskdag.parks_per_op": "count", "ckpt.snapshots_per_op": "count",
		"trace.events_per_op": "count", "trace.dropped_events": "count"}
	out := make([]metric, 0, len(observedNames))
	for _, name := range observedNames {
		unit := units[name]
		switch {
		case unit != "":
		case strings.HasSuffix(name, "_us"):
			unit = "us"
		default:
			unit = "ratio"
		}
		m := metric{name, v[name], unit, n}
		if name == "pipeline.run_p99_us" || name == "pipeline.speedup_vs_serial" {
			m.n = len(untraced.samples)
		}
		out = append(out, m)
	}
	return out
}

// tracedPass runs the workload with the span recorder and the program's
// observers on. Before each chunk the workload's ladder is recorded as
// sibling spans; the chunk is one span whose children are the program's own
// recorder events.
func tracedPass(name string, in *instance, lim limit) (pass, *harvest, *spanRecorder) {
	rec := newSpanRecorder()
	h := &harvest{}
	op, opSpan := 0, -1
	hooks := passHooks{
		before: func() {
			for _, s := range in.ladder {
				id := rec.begin(s.name, -1, op)
				s.fn() // a failing leg fails the op that follows on the same inputs
				rec.end(id)
			}
			opSpan = rec.begin(name, -1, op)
		},
		after: func() {
			rec.end(opSpan)
			origin := rec.now() - in.trace.Now()
			rec.importEvents(h.chunk(in), origin, opSpan, op)
			op++
		},
	}
	return runPass(in, nil, lim, hooks), h, rec
}

// runTraced is the -trace 1 run: every per-layer metric, the Chrome trace
// file and the self-time table.
func runTraced(name string, e env, lim limit, outDir string) (result, error) {
	res, err := runObserved(name, e, lim, outDir)
	if err != nil {
		return result{}, err
	}
	probes, err := runProbes(e)
	if err != nil {
		return result{}, fmt.Errorf("layer probes: %w", err)
	}
	res.metrics = append(res.metrics, probes...)
	return res, nil
}

// runObserved is the workload's half of a traced run: an untraced pass, an
// equally long traced pass, and the metrics the program's observers yield.
func runObserved(name string, e env, lim limit, outDir string) (result, error) {
	plain, err := setUp(name, e)
	if err != nil {
		return result{}, err
	}
	up := runPass(plain, nil, lim, passHooks{})
	plain.close()
	if len(up.samples) == 0 {
		return result{}, fmt.Errorf("%s: no op succeeded: %w", name, up.firstErr)
	}

	e.traced = true
	in, err := setUp(name, e)
	if err != nil {
		return result{}, err
	}
	defer in.close()
	c0 := counterTotals(in.metrics)
	tp, h, rec := tracedPass(name, in, lim)
	c1 := counterTotals(in.metrics)
	if len(tp.samples) == 0 {
		return result{}, fmt.Errorf("%s: no traced op succeeded: %w", name, tp.firstErr)
	}
	path := filepath.Join(outDir, "trace-"+name+".json")
	if err := rec.writeChrome(path); err != nil {
		return result{}, err
	}
	fmt.Printf("# %s: %d spans written to %s\n", name, len(rec.spans), path)
	printSelfTimes(name, rec.selfTimes())

	res := result{attempted: up.attempted + tp.attempted, failed: up.failed + tp.failed, firstErr: up.firstErr}
	if res.firstErr == nil {
		res.firstErr = tp.firstErr
	}
	res.metrics = observed(in, tp, up, h, c0, c1)
	return res, nil
}
