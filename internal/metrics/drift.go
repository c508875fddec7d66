package metrics

import (
	"fmt"

	"wavefront/internal/model"
)

// This file is the online model-drift monitor: it folds the measured
// per-tile compute costs and per-message communication costs (the
// ModelCompFit and ModelCommFit instruments the runtime feeds) into
// running α/β/τ estimates, recomputes Equation (1)'s optimal block size
// under those estimates, and exposes predicted-vs-observed makespan plus
// a drift ratio as gauges.
//
// The drift ratio is observed / predicted-at-optimal-b: how much slower
// the run was than the model says a well-sized run on this machine should
// be. A ratio near 1 means the calibration and the block size are both
// healthy; a ratio well above 1 flags either a mis-sized pipeline block
// (the mistune penalty is visible separately as predicted_actual_ns /
// predicted_ns) or a machine whose α/β have drifted from the values the
// block size was chosen with.

// DriftInput is the geometry of the run being judged. NW and NT are the
// region extents along the wavefront and tile dimensions, P the rank
// count, B the tile width actually used (the naive schedule passes NT),
// and ObservedNs the measured makespan of the parallel section.
type DriftInput struct {
	NW, NT, P, B int
	ObservedNs   int64
}

// DriftReport is one recomputation of the model against the measurements.
type DriftReport struct {
	// Machine-cost estimates in nanoseconds: per-message startup, per-
	// element transmission, and per-element compute time.
	AlphaNs, BetaNs, TauNs float64
	// Alpha and BetaTile are the model-normalized costs fed to Equation
	// (1): α in element-times, and the per-unit-tile-width message cost
	// (β scaled by the boundary depth) in element-times.
	Alpha, BetaTile float64
	// OptimalBlock is Equation (1)'s recomputed b under the estimates,
	// clamped to [1, NT].
	OptimalBlock int
	// Predicted makespans under the estimates, in ns: at the recomputed
	// optimal block and at the block size actually used.
	PredictedOptNs, PredictedActualNs float64
	// ObservedNs echoes the input; DriftRatio is ObservedNs/PredictedOptNs.
	ObservedNs float64
	DriftRatio float64
	// Samples is the number of comm-cost observations behind the α/β
	// estimate; a report with few samples is noise.
	Samples float64
}

func (d DriftReport) String() string {
	return fmt.Sprintf(
		"drift: α=%.0fns β=%.2fns/elem τ=%.2fns/elem b*=%d predicted=%.2gns observed=%.2gns ratio=%.3f (%g comm samples)",
		d.AlphaNs, d.BetaNs, d.TauNs, d.OptimalBlock, d.PredictedOptNs, d.ObservedNs, d.DriftRatio, d.Samples)
}

// predictNs is the generalized §4 pipeline model in nanoseconds: fill
// (p−1 blocks of (nW/p)·b elements), steady-state compute (nW·nT/p
// elements), and the critical-path messages (nT/b + p − 2 of them at
// α + β·b·depth each). For p = 1 there is no fill and no communication.
func predictNs(nW, nT, p int, b, tauNs, alphaNs, betaColNs float64) float64 {
	fnW, fnT, fp := float64(nW), float64(nT), float64(p)
	comp := tauNs * fnW * fnT / fp
	if p > 1 {
		comp += tauNs * fnW * b / fp * (fp - 1)
		msgs := fnT/b + fp - 2
		if msgs > 0 {
			comp += (alphaNs + betaColNs*b) * msgs
		}
	}
	return comp
}

// UpdateDrift recomputes the drift report from the registry's fit
// instruments and publishes it to the model_* gauges. Returns the zero
// report when the registry is nil or no compute cost has been observed
// yet. Call it after a run (the runtime does) or on any schedule.
func (r *Registry) UpdateDrift(in DriftInput) DriftReport {
	var rep DriftReport
	if r == nil {
		return rep
	}
	comp := r.Fit(ModelCompFit).Merged()
	comm := r.Fit(ModelCommFit).Merged()
	if comp.SumX <= 0 || in.NW < 1 || in.NT < 1 || in.P < 1 {
		return rep
	}
	rep.TauNs = comp.SumY / comp.SumX // ns per data-space element
	rep.Samples = comm.N
	rep.AlphaNs, rep.BetaNs, _ = comm.AlphaBeta()

	// Boundary depth: elements forwarded per unit of tile width, from the
	// pipeline's own message accounting (falls back to 1 when the run had
	// no pipeline messages, e.g. p = 1).
	b := in.B
	if b < 1 {
		b = in.NT
	}
	depth := 1.0
	if msgs := r.Counter(PipeWaveMsgs).Value(); msgs > 0 && b > 0 {
		depth = float64(r.Counter(PipeWaveElems).Value()) / float64(msgs) / float64(b)
		if depth <= 0 {
			depth = 1
		}
	}

	if rep.TauNs <= 0 {
		return rep
	}
	rep.Alpha = rep.AlphaNs / rep.TauNs
	rep.BetaTile = rep.BetaNs * depth / rep.TauNs
	bOpt := model.Model2(rep.Alpha, rep.BetaTile).TileWidth(in.NT, in.P)
	rep.OptimalBlock = bOpt

	betaColNs := rep.BetaNs * depth
	rep.PredictedOptNs = predictNs(in.NW, in.NT, in.P, float64(bOpt), rep.TauNs, rep.AlphaNs, betaColNs)
	rep.PredictedActualNs = predictNs(in.NW, in.NT, in.P, float64(b), rep.TauNs, rep.AlphaNs, betaColNs)
	rep.ObservedNs = float64(in.ObservedNs)
	if rep.PredictedOptNs > 0 {
		rep.DriftRatio = rep.ObservedNs / rep.PredictedOptNs
	}

	r.Gauge(ModelAlphaNs).Set(rep.AlphaNs)
	r.Gauge(ModelBetaNs).Set(rep.BetaNs)
	r.Gauge(ModelElemNs).Set(rep.TauNs)
	r.Gauge(ModelOptBlock).Set(float64(rep.OptimalBlock))
	r.Gauge(ModelPredictedNs).Set(rep.PredictedOptNs)
	r.Gauge(ModelPredActualNs).Set(rep.PredictedActualNs)
	r.Gauge(ModelObservedNs).Set(rep.ObservedNs)
	r.Gauge(ModelDrift).Set(rep.DriftRatio)
	r.Gauge(ModelSamples).Set(rep.Samples)
	return rep
}
