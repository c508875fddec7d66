package metrics

import (
	"fmt"

	"wavefront/internal/trace"
)

// Observer is the one seam between the runtime's instrumented sites and a
// run's observers. A site reads one clock (Now), fills one trace.Event and
// hands it to Emit, which appends it to the trace ring when the run is
// traced and folds it into the registry when the run is metered. Every
// comm_*, pipeline_*, session_* and checkpoint counter that measures a span
// is derived here, from the event the trace holds, so the live account and
// the post-mortem one are one account: RingClass.Add, the classifier
// trace.Summarize uses, decides what is busy and what is wait.
//
// Counts that have no span — wave epochs, replayed messages, dropped trace
// events, the kernel-path tallies, the task-DAG pool's totals — stay direct
// counters at their sites.
//
// A nil *Observer is the run with no observer: Now returns 0 and a site
// guards its event with one nil check. An Observer lives for one Run; like
// a trace ring, rank r's share of it is written by rank r's goroutine only.
type Observer struct {
	tr  *trace.Recorder
	reg *Registry

	sends, recvs, sendBytes, recvBytes *Counter
	blockedNs, stalls, faults, cancels *Counter
	tiles, points, busyNs, waitNs      *Counter
	waveMsgs, waveElems                *Counter
	exchanges, reductions, barriers    *Counter
	snapshots, restores                *Counter
	tileNs                             *Histogram
	commCost, compCost                 *Fit
	ranks                              []rankFold
}

// rankFold is one rank's share of a metered Run, padded so adjacent ranks'
// folds share no cache line: the classification of what it emitted, and its
// part in the sweeps' makespans — sweeps counts the wavefront sweeps whose
// pipeline the rank headed, and sweepNs sums clock readings, signed: minus
// the start of each sweep it headed, plus the end of each whose last rank
// it was, so over all ranks sweepNs sums the sweeps' makespans.
type rankFold struct {
	class           trace.RingClass
	sweeps, sweepNs int64
	_               [64]byte
}

// Observe returns the observer of one Run of procs ranks over a recorder
// and a registry, either of which may be nil; nil when both are.
func Observe(tr *trace.Recorder, reg *Registry, procs int) (*Observer, error) {
	if tr != nil && tr.Procs() < procs {
		return nil, fmt.Errorf("metrics: trace recorder sized for %d ranks, the run has %d", tr.Procs(), procs)
	}
	if reg != nil && reg.Procs() < procs {
		return nil, fmt.Errorf("metrics: registry sized for %d ranks, the run has %d", reg.Procs(), procs)
	}
	if tr == nil && reg == nil {
		return nil, nil
	}
	o := &Observer{tr: tr, reg: reg}
	if reg == nil {
		return o, nil
	}
	o.sends, o.recvs = reg.Counter(CommSends), reg.Counter(CommRecvs)
	o.sendBytes, o.recvBytes = reg.Counter(CommSendBytes), reg.Counter(CommRecvBytes)
	o.blockedNs, o.stalls = reg.Counter(CommBlockedNs), reg.Counter(CommStalls)
	o.faults, o.cancels = reg.Counter(CommFaults), reg.Counter(CommCancels)
	o.tiles, o.points = reg.Counter(PipeTiles), reg.Counter(PipePoints)
	o.busyNs, o.waitNs = reg.Counter(PipeBusyNs), reg.Counter(PipeWaitNs)
	o.waveMsgs, o.waveElems = reg.Counter(PipeWaveMsgs), reg.Counter(PipeWaveElems)
	o.exchanges, o.reductions = reg.Counter(SessExchanges), reg.Counter(SessReductions)
	o.barriers = reg.Counter(SessBarriers)
	o.snapshots, o.restores = reg.Counter(CkptSnapshots), reg.Counter(CkptRestores)
	o.tileNs = reg.Histogram(PipeTileNs)
	o.commCost, o.compCost = reg.Fit(ModelCommFit), reg.Fit(ModelCompFit)
	for _, name := range []string{PipeFillNs, PipeDrainNs, PipeSteadyNs, KernelNsPerPoint} {
		reg.Gauge(name) // published by Finish; on every scrape from the first Run on
	}
	o.ranks = make([]rankFold, reg.Procs())
	for i := range o.ranks {
		o.ranks[i].class = trace.NewRingClass()
	}
	return o, nil
}

// Now is the run's one clock: ns since the recorder's epoch when the run is
// traced, since the registry's otherwise (0 for nil).
func (o *Observer) Now() int64 {
	switch {
	case o == nil:
		return 0
	case o.tr != nil:
		return o.tr.Now()
	}
	return o.reg.Now()
}

// Emit hands one finished span to the run's observers.
func (o *Observer) Emit(ev trace.Event) {
	o.tr.Record(ev)
	if o.reg != nil {
		o.fold(&ev)
	}
}

// fold derives the registry's span-borne instruments from one event.
func (o *Observer) fold(ev *trace.Event) {
	rank := ev.Rank
	c := &o.ranks[rank].class
	busy, wait := c.Busy, c.Wait
	c.Add(ev)
	if d := c.Busy - busy; d != 0 {
		o.busyNs.Add(rank, int64(d))
	}
	if d := c.Wait - wait; d != 0 {
		o.waitNs.Add(rank, int64(d))
	}
	elems := int64(ev.Elems)
	switch ev.Kind {
	case trace.KindSend:
		o.sends.Add(rank, 1)
		o.sendBytes.Add(rank, 8*elems)
		if ev.Blocked > 0 {
			o.stalls.Add(rank, 1)
		}
		o.message(ev)
	case trace.KindRecv:
		o.recvs.Add(rank, 1)
		o.recvBytes.Add(rank, 8*elems)
		o.message(ev)
	case trace.KindCompute:
		// A compute span with a tile index is one tile of a block and one
		// sample of the per-point cost Equation (1) is fed; one without (a
		// reduction's local fold) is busy time only.
		if ev.Tile >= 0 {
			d := ev.End - ev.Start
			o.tiles.Add(rank, 1)
			o.points.Add(rank, elems)
			o.tileNs.Observe(rank, d)
			o.compCost.Observe(rank, float64(elems), float64(d))
		}
	case trace.KindWaveSend:
		o.waveMsgs.Add(rank, 1)
		o.waveElems.Add(rank, elems)
	case trace.KindExchange:
		o.exchanges.Add(rank, 1)
	case trace.KindReduce:
		o.reductions.Add(rank, 1)
	case trace.KindCkpt:
		o.snapshots.Add(rank, 1)
	case trace.KindRestore:
		o.restores.Add(rank, 1)
	case trace.KindFault:
		o.faults.Add(rank, 1)
	case trace.KindCancel:
		o.cancels.Add(rank, 1)
	}
}

// message folds what a send and a receive share: the blocked part is the
// comm layer's wait, the rest one sample of the α + β·elems message cost.
func (o *Observer) message(ev *trace.Event) {
	if ev.Blocked > 0 {
		o.blockedNs.Add(ev.Rank, ev.Blocked)
	}
	o.commCost.Observe(ev.Rank, float64(ev.Elems), float64(ev.End-ev.Start-ev.Blocked))
}

// Barrier counts one user barrier on rank. A barrier has no span of its
// own in the trace — its time is the blocked receives inside it, which is
// where both accounts charge it — so this is a count, not an event.
func (o *Observer) Barrier(rank int) {
	if o != nil {
		o.barriers.Add(rank, 1)
	}
}

// Swept closes rank's part in one wavefront sweep of a metered Run that it
// entered at start. The pipeline's head (no upstream neighbour) opened the
// sweep then; its tail (no downstream neighbour) closes it now.
func (o *Observer) Swept(rank int, head, tail bool, start int64) {
	f := &o.ranks[rank]
	if head {
		f.sweeps++
		f.sweepNs -= start
	}
	if tail {
		f.sweepNs += o.Now()
	}
}

// Finish publishes what only the whole Run shows — the fill / steady /
// drain split of its compute spans (trace.Envelope, as a trace summary
// computes it) and the mean compute cost per grid point — and returns how
// many sweeps the Run made and their summed makespans. Call after the
// ranks have retired; a no-op when the run is not metered.
func (o *Observer) Finish() (sweeps, sweepNs int64) {
	env := trace.NewEnvelope()
	for i := range o.ranks {
		f := &o.ranks[i]
		f.class.Close()
		env.Add(&f.class)
		sweeps, sweepNs = sweeps+f.sweeps, sweepNs+f.sweepNs
	}
	if env.Computing > 0 {
		o.reg.Gauge(PipeFillNs).Set(float64(env.Fill()))
		o.reg.Gauge(PipeDrainNs).Set(float64(env.Drain()))
		// The interval with every rank active.
		o.reg.Gauge(PipeSteadyNs).Set(float64(max(env.SteadyEnd-env.FillEnd, 0)))
	}
	if pts := o.points.Value(); pts > 0 {
		o.reg.Gauge(KernelNsPerPoint).Set(float64(o.busyNs.Value()) / float64(pts))
	}
	return sweeps, sweepNs
}
