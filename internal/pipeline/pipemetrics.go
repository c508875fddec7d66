package pipeline

import (
	"time"

	"wavefront/internal/bufpool"
	"wavefront/internal/metrics"
	"wavefront/internal/trace"
)

// pipeMetrics is what a metered Run keeps beside its Observer: the three
// counts that are not spans of a trace (wave epochs, messages a restart
// replayed, trace events the rings dropped). Everything a span measures
// reaches the registry through the Observer. A nil *pipeMetrics disables
// everything.
type pipeMetrics struct {
	reg          *metrics.Registry
	obs          *metrics.Observer
	waves        *metrics.Counter
	ckptReplayed *metrics.Counter
	traceDropped *metrics.Counter
}

func newPipeMetrics(reg *metrics.Registry, obs *metrics.Observer) *pipeMetrics {
	if reg == nil {
		return nil
	}
	// Pre-register the drift and pool gauges so every scrape carries
	// the full family set even before the first run completes (the
	// Observer does the same for the gauges it publishes).
	for _, name := range []string{
		metrics.ModelAlphaNs, metrics.ModelBetaNs, metrics.ModelElemNs,
		metrics.ModelOptBlock, metrics.ModelPredictedNs, metrics.ModelPredActualNs,
		metrics.ModelObservedNs, metrics.ModelDrift, metrics.ModelSamples,
		metrics.PoolHitRatio,
	} {
		reg.Gauge(name)
	}
	return &pipeMetrics{
		reg:          reg,
		obs:          obs,
		waves:        reg.Counter(metrics.PipeWaves),
		ckptReplayed: reg.Counter(metrics.CkptReplayed),
		traceDropped: reg.Counter(metrics.TraceDropped),
	}
}

// traceDropBase snapshots per-ring drop counts before a run, so
// publishTraceDrops can add only this run's losses even when the recorder
// (never Reset between runs) or the registry is reused.
func (pm *pipeMetrics) traceDropBase(tr *trace.Recorder) []int64 {
	if pm == nil || tr == nil {
		return nil
	}
	base := make([]int64, tr.Procs())
	for i := range base {
		base[i] = tr.RankDropped(i)
	}
	return base
}

// publishTraceDrops surfaces ring wrap-around as the
// trace_dropped_events_total counter: per-rank, with each rank's task-DAG
// worker rings folded into the owning rank's shard. Call after the run's
// ranks have retired.
func (pm *pipeMetrics) publishTraceDrops(tr *trace.Recorder, base []int64, rings trace.Layout) {
	if pm == nil || tr == nil {
		return
	}
	for ring := 0; ring < tr.Procs(); ring++ {
		d := tr.RankDropped(ring)
		if ring < len(base) {
			d -= base[ring]
		}
		if d > 0 {
			pm.traceDropped.Add(min(rings.RankOf(ring), pm.reg.Procs()-1), d)
		}
	}
}

// publishPool publishes the buffer pool's cumulative totals. Call after
// the run's ranks have retired.
func (pm *pipeMetrics) publishPool(pool *bufpool.Pool) {
	if pool == nil {
		return
	}
	st := pool.Stats()
	pm.reg.Gauge(metrics.PoolHits).Set(float64(st.Hits))
	pm.reg.Gauge(metrics.PoolMisses).Set(float64(st.Misses))
	pm.reg.Gauge(metrics.PoolReturns).Set(float64(st.Returns))
	pm.reg.Gauge(metrics.PoolDiscards).Set(float64(st.Discards))
	pm.reg.Gauge(metrics.PoolHitRatio).Set(st.HitRatio())
}

// finishRun publishes the run-level gauges (Observer.Finish), records the
// observed makespan, and refreshes the model-drift gauges. Call once per
// Run, after every rank has retired.
//
// Equation (1) predicts one sweep, so one sweep is what it is held against.
// A run that swept once — a one-shot — is judged by its whole wall-clock, as
// its caller saw it, scatter and gather included. A session body that swept
// again and again (and ran parallel blocks, exchanges and reductions in
// between) is judged by its sweeps' mean makespan: head rank's first tile to
// tail rank's last.
func (pm *pipeMetrics) finishRun(nW, nT, p, b int, elapsed time.Duration) metrics.DriftReport {
	if b < 1 {
		b = nT
	}
	observed := int64(elapsed)
	if sweeps, inSweeps := pm.obs.Finish(); sweeps > 1 {
		observed = inSweeps / sweeps
	}
	return pm.reg.UpdateDrift(metrics.DriftInput{
		NW: nW, NT: nT, P: p, B: b, ObservedNs: observed,
	})
}
