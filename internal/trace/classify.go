package trace

import "time"

// Class is what the time inside a span is: the three classes every account
// of a run — the trace summary, the critical path, the live registry — is
// made of, or ClassOther for a marker that is none of them.
type Class uint8

const (
	ClassOther Class = iota
	// ClassBusy is time spent computing.
	ClassBusy
	// ClassComm is time moving data; the part of such a span its Blocked
	// field covers is wait.
	ClassComm
	// ClassWait is time blocked.
	ClassWait
)

// ClassOf is the one place a Kind is given a class. Summarize and the
// registry reach it through RingClass.Add, and so do the critical path's
// totals; the path's own attribution calls it for each span it crosses.
//
// leaf is false for a span whose time other events on the same ring
// already carry — a boundary message, halo exchange or reduction wraps its
// sends and receives, and a blocked-send span repeats its send's Blocked
// field — so a ring's totals skip it, while a path crossing it still
// needs its class.
func ClassOf(k Kind) (c Class, leaf bool) {
	switch k {
	case KindCompute, KindTaskTile, KindKernel:
		return ClassBusy, true
	case KindSend, KindRecv, KindScatter, KindGather:
		return ClassComm, true
	case KindWaveSend, KindWaveRecv, KindExchange, KindReduce:
		return ClassComm, false
	case KindBarrier:
		return ClassWait, true
	case KindBlockedSend:
		return ClassWait, false
	}
	return ClassOther, false
}

// RingClass is the one classification of a ring's recorded time: how much
// of it was busy, comm and wait, and the envelope of its compute spans.
// Summarize and the critical-path analyzer both build their per-ring and
// whole-run numbers from it, so the two accounts cannot disagree.
//
// Add every event of the ring, then Close; read the fields after that.
type RingClass struct {
	// Busy is time spent computing: tile spans, or fused kernel runs when
	// the ring recorded no tile spans (a serial trace).
	Busy time.Duration
	// Comm is time moving data: sends, the non-blocked part of receives,
	// and the scatter/gather copies.
	Comm time.Duration
	// Wait is time blocked: the waiting part of receives and backpressured
	// sends, plus barrier waits.
	Wait time.Duration
	// Faults counts injected faults that fired on the ring; Cancels counts
	// operations aborted by topology cancellation.
	Faults, Cancels int
	// Start and End bound every event on the ring, FirstCompute and
	// LastCompute its compute spans, in ns since the epoch; -1 when the
	// ring has none.
	Start, End                int64
	FirstCompute, LastCompute int64

	// Fused kernel runs, held aside until Close knows whether the ring has
	// tile spans of its own (which contain them).
	kernel        time.Duration
	kFirst, kLast int64
	hasCompute    bool
}

// NewRingClass returns an empty classification.
func NewRingClass() RingClass {
	return RingClass{Start: -1, End: -1, FirstCompute: -1, LastCompute: -1, kFirst: -1, kLast: -1}
}

// widen grows the envelope [*lo, *hi] (-1 = empty) to cover [start, end].
func widen(lo, hi *int64, start, end int64) {
	if *lo < 0 || start < *lo {
		*lo = start
	}
	if end > *hi {
		*hi = end
	}
}

// Add classifies one event.
func (c *RingClass) Add(ev *Event) {
	widen(&c.Start, &c.End, ev.Start, ev.End)
	d := time.Duration(ev.End - ev.Start)
	switch class, leaf := ClassOf(ev.Kind); {
	case ev.Kind == KindFault:
		c.Faults++
	case ev.Kind == KindCancel:
		c.Cancels++
	case !leaf:
	case ev.Kind == KindKernel:
		c.kernel += d
		widen(&c.kFirst, &c.kLast, ev.Start, ev.End)
	case class == ClassBusy:
		c.hasCompute = true
		c.Busy += d
		widen(&c.FirstCompute, &c.LastCompute, ev.Start, ev.End)
	case class == ClassComm:
		c.Wait += time.Duration(ev.Blocked)
		c.Comm += d - time.Duration(ev.Blocked)
	case class == ClassWait:
		c.Wait += d
	}
}

// Close settles what counts as compute on the ring: a ring with no tile
// spans but fused kernel runs (a serial trace) counts those as busy.
func (c *RingClass) Close() {
	if !c.hasCompute && c.kernel > 0 {
		c.Busy, c.FirstCompute, c.LastCompute = c.kernel, c.kFirst, c.kLast
	}
}

// IsCompute reports whether the closed classification counted events of
// kind k as the ring's compute spans.
func (c *RingClass) IsCompute(k Kind) bool {
	if class, _ := ClassOf(k); class != ClassBusy {
		return false
	}
	if c.hasCompute {
		return k != KindKernel
	}
	return k == KindKernel && c.kernel > 0
}

// Envelope is the whole-run view over every ring's classification: the
// wall-clock bounds and the fill / steady / drain boundaries of the
// pipeline, which are where the last ring starts computing and where the
// first ring stops.
type Envelope struct {
	// Start and End bound every recorded event; -1 when there are none.
	Start, End int64
	// Computing counts the rings with at least one compute span. Over
	// those: FirstStart is when the first of them begins computing and
	// FillEnd when the last one does; SteadyEnd is when the first of them
	// finishes and LastEnd when the last one does.
	Computing           int
	FirstStart, FillEnd int64
	SteadyEnd, LastEnd  int64
}

// NewEnvelope returns an empty envelope.
func NewEnvelope() Envelope {
	return Envelope{Start: -1, End: -1, FirstStart: -1, FillEnd: -1, SteadyEnd: -1, LastEnd: -1}
}

// Add folds one closed ring classification into the envelope.
func (e *Envelope) Add(c *RingClass) {
	if c.Start >= 0 {
		widen(&e.Start, &e.End, c.Start, c.End)
	}
	if c.FirstCompute < 0 {
		return
	}
	e.Computing++
	widen(&e.FirstStart, &e.FillEnd, c.FirstCompute, c.FirstCompute)
	widen(&e.SteadyEnd, &e.LastEnd, c.LastCompute, c.LastCompute)
}

// Wall is the span from the first to the last recorded timestamp.
func (e *Envelope) Wall() time.Duration {
	if e.Start < 0 {
		return 0
	}
	return time.Duration(e.End - e.Start)
}

// Fill is how long after the first ring starts computing the last one
// does; zero unless at least two rings computed.
func (e *Envelope) Fill() time.Duration {
	if e.Computing < 2 {
		return 0
	}
	return time.Duration(e.FillEnd - e.FirstStart)
}

// Drain is how long after the first ring finishes its last compute span
// the last ring does; zero unless at least two rings computed.
func (e *Envelope) Drain() time.Duration {
	if e.Computing < 2 {
		return 0
	}
	return time.Duration(e.LastEnd - e.SteadyEnd)
}
