package pipeline

import (
	"time"

	"wavefront/internal/bufpool"
	"wavefront/internal/metrics"
	"wavefront/internal/trace"
)

// pipeMetrics is the pipeline runtime's resolved instrument set, the
// counterpart of comm's SetMetrics resolution: one struct built per Run
// when Config.Metrics is non-nil, so the tile loop pays a single nil check
// and a few atomic adds per tile. A nil *pipeMetrics disables everything.
type pipeMetrics struct {
	reg                             *metrics.Registry
	tiles, waves, points            *metrics.Counter
	busyNs, waitNs                  *metrics.Counter
	waveMsgs, waveElems             *metrics.Counter
	exchanges, reductions, barriers *metrics.Counter
	ckptSnaps, ckptRestores         *metrics.Counter
	ckptReplayed                    *metrics.Counter
	traceDropped                    *metrics.Counter
	tileNs                          *metrics.Histogram
	compCost                        *metrics.Fit
	// first/last bound each rank's compute activity in ns since the
	// registry epoch. sweeps counts the wavefront sweeps this run whose
	// pipeline the rank headed, and sweepNs sums clock readings, signed:
	// minus the start of each sweep the rank headed, plus the end of each
	// whose last rank it was — so over all ranks sweepNs sums the sweeps'
	// makespans. Each rank's goroutine writes only its own slot; finishRun
	// reads after the run's WaitGroup.
	first, last     []int64
	sweeps, sweepNs []int64
}

func newPipeMetrics(reg *metrics.Registry, p int) *pipeMetrics {
	if reg == nil {
		return nil
	}
	pm := &pipeMetrics{
		reg:          reg,
		tiles:        reg.Counter(metrics.PipeTiles),
		waves:        reg.Counter(metrics.PipeWaves),
		points:       reg.Counter(metrics.PipePoints),
		busyNs:       reg.Counter(metrics.PipeBusyNs),
		waitNs:       reg.Counter(metrics.PipeWaitNs),
		waveMsgs:     reg.Counter(metrics.PipeWaveMsgs),
		waveElems:    reg.Counter(metrics.PipeWaveElems),
		exchanges:    reg.Counter(metrics.SessExchanges),
		reductions:   reg.Counter(metrics.SessReductions),
		barriers:     reg.Counter(metrics.SessBarriers),
		ckptSnaps:    reg.Counter(metrics.CkptSnapshots),
		ckptRestores: reg.Counter(metrics.CkptRestores),
		ckptReplayed: reg.Counter(metrics.CkptReplayed),
		traceDropped: reg.Counter(metrics.TraceDropped),
		tileNs:       reg.Histogram(metrics.PipeTileNs),
		compCost:     reg.Fit(metrics.ModelCompFit),
	}
	slots := make([]int64, 4*p)
	pm.first, pm.last = slots[:p:p], slots[p:2*p:2*p]
	pm.sweeps, pm.sweepNs = slots[2*p:3*p:3*p], slots[3*p:]
	for i := range pm.first {
		pm.first[i] = -1
	}
	// Pre-register the phase and drift gauges so every scrape carries the
	// full family set even before the first run completes.
	for _, name := range []string{
		metrics.PipeFillNs, metrics.PipeDrainNs, metrics.PipeSteadyNs,
		metrics.ModelAlphaNs, metrics.ModelBetaNs, metrics.ModelElemNs,
		metrics.ModelOptBlock, metrics.ModelPredictedNs, metrics.ModelPredActualNs,
		metrics.ModelObservedNs, metrics.ModelDrift, metrics.ModelSamples,
		metrics.PoolHitRatio, metrics.AllocsPerWave, metrics.KernelNsPerPoint,
	} {
		reg.Gauge(name)
	}
	return pm
}

// now returns ns since the registry epoch.
func (pm *pipeMetrics) now() int64 { return pm.reg.Now() }

// tile records one tile's compute span for rank.
func (pm *pipeMetrics) tile(rank, elems int, start, end int64) {
	d := end - start
	pm.tiles.Add(rank, 1)
	pm.points.Add(rank, int64(elems))
	pm.busyNs.Add(rank, d)
	pm.tileNs.Observe(rank, d)
	pm.compCost.Observe(rank, float64(elems), float64(d))
	if pm.first[rank] < 0 {
		pm.first[rank] = start
	}
	pm.last[rank] = end
}

// swept closes rank's part in one wavefront sweep it entered at start. The
// pipeline's head (no upstream neighbour) opened the sweep then; its tail (no
// downstream neighbour) closes it now.
func (pm *pipeMetrics) swept(rank int, head, tail bool, start int64) {
	if head {
		pm.sweeps[rank]++
		pm.sweepNs[rank] -= start
	}
	if tail {
		pm.sweepNs[rank] += pm.now()
	}
}

// waveSend records one pipeline boundary message leaving rank.
func (pm *pipeMetrics) waveSend(rank, elems int) {
	pm.waveMsgs.Add(rank, 1)
	pm.waveElems.Add(rank, int64(elems))
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
// worker rings (procs + rank*workers ... + workers-1) folded into the
// owning rank's shard. Call after the run's ranks have retired.
func (pm *pipeMetrics) publishTraceDrops(tr *trace.Recorder, base []int64, procs, workers int) {
	if pm == nil || tr == nil {
		return
	}
	for ring := 0; ring < tr.Procs(); ring++ {
		d := tr.RankDropped(ring)
		if ring < len(base) {
			d -= base[ring]
		}
		if d <= 0 {
			continue
		}
		rank := ring
		if ring >= procs {
			if workers > 0 {
				rank = (ring - procs) / workers
			}
			if rank >= procs {
				rank = procs - 1
			}
		}
		if rank >= pm.reg.Procs() {
			rank = pm.reg.Procs() - 1
		}
		pm.traceDropped.Add(rank, d)
	}
}

// publishAlloc publishes the run's allocation health: heap objects
// allocated per wave epoch (a whole-process figure — scatter, gather, and
// unrelated goroutines included — so it bounds the hot path from above)
// and the buffer pool's cumulative totals. Call after the run's ranks
// have retired.
func (pm *pipeMetrics) publishAlloc(mallocs, waves int64, pool *bufpool.Pool) {
	if waves > 0 {
		pm.reg.Gauge(metrics.AllocsPerWave).Set(float64(mallocs) / float64(waves))
	}
	if pool != nil {
		st := pool.Stats()
		pm.reg.Gauge(metrics.PoolHits).Set(float64(st.Hits))
		pm.reg.Gauge(metrics.PoolMisses).Set(float64(st.Misses))
		pm.reg.Gauge(metrics.PoolReturns).Set(float64(st.Returns))
		pm.reg.Gauge(metrics.PoolDiscards).Set(float64(st.Discards))
		pm.reg.Gauge(metrics.PoolHitRatio).Set(st.HitRatio())
	}
}

// finishRun publishes the fill/drain/steady phase split from the per-rank
// compute envelopes, records the observed makespan, and refreshes the
// model-drift gauges. Call once per Run, after every rank has retired.
//
// Equation (1) predicts one sweep, so one sweep is what it is held against.
// A run that swept once — a one-shot — is judged by its whole wall-clock, as
// its caller saw it, scatter and gather included. A session body that swept
// again and again (and ran parallel blocks, exchanges and reductions in
// between) is judged by its sweeps' mean makespan: head rank's first tile to
// tail rank's last.
func (pm *pipeMetrics) finishRun(nW, nT, p, b int, elapsed time.Duration) metrics.DriftReport {
	var minFirst, maxFirst, minLast, maxLast int64 = -1, -1, -1, -1
	for r := range pm.first {
		f, l := pm.first[r], pm.last[r]
		if f < 0 {
			continue
		}
		if minFirst < 0 || f < minFirst {
			minFirst = f
		}
		if f > maxFirst {
			maxFirst = f
		}
		if minLast < 0 || l < minLast {
			minLast = l
		}
		if l > maxLast {
			maxLast = l
		}
	}
	if minFirst >= 0 {
		pm.reg.Gauge(metrics.PipeFillNs).Set(float64(maxFirst - minFirst))
		pm.reg.Gauge(metrics.PipeDrainNs).Set(float64(maxLast - minLast))
		steady := minLast - maxFirst // interval with every rank active
		if steady < 0 {
			steady = 0
		}
		pm.reg.Gauge(metrics.PipeSteadyNs).Set(float64(steady))
	}
	if pts := pm.points.Value(); pts > 0 {
		pm.reg.Gauge(metrics.KernelNsPerPoint).Set(float64(pm.busyNs.Value()) / float64(pts))
	}
	if b < 1 {
		b = nT
	}
	observed := int64(elapsed)
	var sweeps, inSweeps int64
	for r := range pm.sweeps {
		sweeps += pm.sweeps[r]
		inSweeps += pm.sweepNs[r]
	}
	if sweeps > 1 {
		observed = inSweeps / sweeps
	}
	return pm.reg.UpdateDrift(metrics.DriftInput{
		NW: nW, NT: nT, P: p, B: b, ObservedNs: observed,
	})
}
