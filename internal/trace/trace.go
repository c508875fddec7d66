// Package trace is the runtime's per-rank execution recorder: a
// preallocated ring buffer of timestamped events per rank, written only by
// that rank's goroutine, so recording takes no locks and the disabled case
// (a nil *Recorder) costs a single pointer comparison.
//
// The trace serves three purposes:
//
//   - observability: Summary derives per-rank busy/wait/comm breakdowns and
//     the pipeline fill/drain/overlap figures of the paper's §4 model;
//   - visualization: WriteChrome exports Chrome trace-event JSON that loads
//     in chrome://tracing or Perfetto, one timeline row per rank;
//   - correctness: Validate replays a trace and mechanically checks the
//     wavefront safety invariant — no tile computes before the upstream
//     boundary messages it depends on have been received, and every send
//     is matched, in order, by one receive. It is Index.Check over the
//     causal index (index.go) the critical-path analyzer also walks.
//
// The runtime's sites do not call Record themselves: they hand each event
// to the run's metrics.Observer, which records it here and folds it into
// the live registry, so both hold one account.
//
// Concurrency contract: Record for rank r may only be called from rank r's
// goroutine (the SPMD body), and Events/Summary/Validate may only be called
// after the parallel section has completed (the runtime's WaitGroup
// establishes the necessary happens-before edge).
package trace

import "time"

// Kind classifies an event.
type Kind uint8

// Event kinds. Compute and Kernel are execution spans; Send/Recv are the
// comm substrate's point-to-point transfers; WaveSend/WaveRecv are the
// pipeline's boundary messages (carrying the schedule identity the
// validator needs); the rest are runtime phases.
const (
	// KindCompute is one tile's kernel execution inside the pipeline.
	KindCompute Kind = iota
	// KindKernel is a fused-loop run inside scan.Kernel (serial executor).
	KindKernel
	// KindSend is a point-to-point send (comm layer).
	KindSend
	// KindRecv is a point-to-point receive; Blocked records the time spent
	// waiting for the message to arrive.
	KindRecv
	// KindWaveSend marks a pipeline boundary message leaving for the
	// downstream rank after a tile (wraps the underlying KindSend).
	KindWaveSend
	// KindWaveRecv marks a pipeline boundary message arriving from the
	// upstream rank (wraps the underlying KindRecv plus the unpack).
	KindWaveRecv
	// KindScatter is the initial distribution of global arrays to a rank.
	KindScatter
	// KindGather is the final collection of a rank's results.
	KindGather
	// KindBarrier is a phase-barrier wait (scatter/gather separation).
	KindBarrier
	// KindExchange is a halo refresh: rows sent to and received from the
	// neighbouring ranks that took part. Peer is the lowest-numbered of
	// them and Seq the highest (the same rank when rows moved across one
	// slab boundary only), Elems the elements sent plus received.
	KindExchange
	// KindReduce is a cross-rank reduction.
	KindReduce
	// KindBlockedSend is the portion of a send spent waiting for space on a
	// capacity-bounded link (backpressure); the enclosing KindSend span
	// carries the same duration in Blocked.
	KindBlockedSend
	// KindFault marks an injected fault firing on this rank; Seq holds the
	// fault.Action code and Peer/Tag identify the faulted operation.
	KindFault
	// KindCancel marks an operation aborted by topology cancellation
	// (including watchdog-diagnosed deadlocks).
	KindCancel
	// KindTaskTile is one tile's execution under the task-DAG scheduler;
	// Wave identifies the DAG run, Tile the tile index. End is taken
	// before any successor tile is released, so the validator may require
	// predecessor End <= successor Start.
	KindTaskTile
	// KindTaskDep records, at a task-DAG tile's start, one dependence edge
	// the scheduler claims was satisfied: Seq holds the predecessor tile
	// index, Tile/Wave the depending tile. Start == End == the tile's
	// start instant.
	KindTaskDep
	// KindCkpt marks a checkpoint snapshot; Wave is the sweep the cut lies
	// inside (Tile > 0, the tile about to run) or before (Tile 0, the start
	// of an operation), Elems the snapshotted element count.
	KindCkpt
	// KindRestore marks a rank restored from its checkpoint after a crash;
	// Wave and Tile are the restored snapshot's (the restart resumes
	// there), Seq its sequence number.
	KindRestore
	numKinds
)

var kindNames = [numKinds]string{
	"compute", "kernel", "send", "recv", "wave-send", "wave-recv",
	"scatter", "gather", "barrier", "exchange", "reduce",
	"blocked-send", "fault", "cancel", "task-tile", "task-dep",
	"ckpt", "restore",
}

// String names the kind for humans and for the Chrome export.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one recorded span. Start and End are nanoseconds since the
// recorder's epoch (monotonic, comparable across ranks). Fields that do not
// apply to a kind hold -1.
type Event struct {
	Kind Kind `json:"kind"`
	// Rank is the recording rank.
	Rank int `json:"rank"`
	// Peer is the counterpart rank: destination for sends, source for
	// receives, upstream rank for pipeline computes.
	Peer int `json:"peer"`
	// Tag is the comm-layer message tag (Send/Recv only; negative tags are
	// collectives).
	Tag int `json:"tag"`
	// Seq is the boundary-message index within one wavefront block run
	// (WaveSend/WaveRecv): the sender emits Seq = tile index, the receiver
	// counts arrivals.
	Seq int `json:"seq"`
	// Wave identifies which wavefront block run the event belongs to; every
	// rank executes the same block sequence, so equal Wave values name the
	// same run on every rank.
	Wave int `json:"wave"`
	// Tile is the tile index of a compute span within its block: 0 for a
	// block that runs in one piece, -1 for compute that is no tile of a
	// block (a reduction's local fold).
	Tile int `json:"tile"`
	// Need is the last upstream Seq that must have been received before
	// this compute span may begin; -1 when the compute has no upstream
	// dependence.
	Need int `json:"need"`
	// Elems is the payload or region size in elements.
	Elems int `json:"elems"`
	// Start and End bound the span, in ns since the recorder epoch.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Blocked is the portion of a receive spent waiting for the message.
	Blocked int64 `json:"blocked"`
}

// Ev returns an event of the given kind and span with every identity field
// cleared to -1; callers fill in what applies.
func Ev(kind Kind, rank int, start, end int64) Event {
	return Event{
		Kind: kind, Rank: rank, Start: start, End: end,
		Peer: -1, Tag: 0, Seq: -1, Wave: -1, Tile: -1, Need: -1,
	}
}

// DefaultCapacity is the per-rank ring size used when New is given a
// non-positive capacity: large enough for every event of the test and
// benchmark workloads, small enough (≈ 6 MB at 16 ranks) to preallocate
// without thought.
const DefaultCapacity = 1 << 16

// rankBuf is one rank's preallocated ring. The trailing pad keeps adjacent
// ranks' write cursors off the same cache line.
type rankBuf struct {
	ev      []Event
	head    int // index of the oldest event once the ring has wrapped
	dropped int64
	_       [64]byte
}

// Recorder collects events for a fixed number of ranks. The zero value is
// not usable; call New. A nil *Recorder is the disabled recorder: every
// method is safe to call and does nothing.
type Recorder struct {
	epoch time.Time
	ranks []rankBuf
}

// New creates a recorder for p ranks with the given per-rank ring capacity
// (non-positive selects DefaultCapacity). All buffers are allocated up
// front; recording never allocates.
func New(p, capacity int) *Recorder {
	if p < 1 {
		p = 1
	}
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	r := &Recorder{epoch: time.Now(), ranks: make([]rankBuf, p)}
	for i := range r.ranks {
		r.ranks[i].ev = make([]Event, 0, capacity)
	}
	return r
}

// Enabled reports whether the recorder records (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// Procs returns the number of ranks the recorder was sized for (0 for nil).
func (r *Recorder) Procs() int {
	if r == nil {
		return 0
	}
	return len(r.ranks)
}

// Now returns nanoseconds since the recorder epoch (0 for nil). The clock
// is monotonic and shared by all ranks.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// Record appends an event to the rank's ring, overwriting the oldest event
// (and counting it as dropped) when the ring is full. Only the rank's own
// goroutine may call Record for that rank.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	b := &r.ranks[ev.Rank]
	if len(b.ev) < cap(b.ev) {
		b.ev = append(b.ev, ev)
		return
	}
	b.ev[b.head] = ev
	b.head++
	if b.head == len(b.ev) {
		b.head = 0
	}
	b.dropped++
}

// Dropped returns the total number of events lost to ring wrap-around. A
// trace with drops cannot be validated.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	var n int64
	for i := range r.ranks {
		n += r.ranks[i].dropped
	}
	return n
}

// RankDropped returns one rank's ring-wrap loss, so a caller can
// attribute drops (and the trace_dropped_events_total metric) per ring.
func (r *Recorder) RankDropped(rank int) int64 {
	if r == nil || rank < 0 || rank >= len(r.ranks) {
		return 0
	}
	return r.ranks[rank].dropped
}

// Len returns the number of retained events across all ranks.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.ranks {
		n += len(r.ranks[i].ev)
	}
	return n
}

// RankEvents returns a copy of one rank's retained events in record order.
func (r *Recorder) RankEvents(rank int) []Event {
	if r == nil || rank < 0 || rank >= len(r.ranks) {
		return nil
	}
	b := &r.ranks[rank]
	out := make([]Event, 0, len(b.ev))
	out = append(out, b.ev[b.head:]...)
	out = append(out, b.ev[:b.head]...)
	return out
}

// Events returns a copy of every retained event, rank by rank, each rank in
// record order (which is start-time order within a rank).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, r.Len())
	for rank := range r.ranks {
		out = append(out, r.RankEvents(rank)...)
	}
	return out
}

// Reset discards all events and restarts the epoch, keeping the
// preallocated buffers. Not safe concurrently with Record.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.epoch = time.Now()
	for i := range r.ranks {
		r.ranks[i].ev = r.ranks[i].ev[:0]
		r.ranks[i].head = 0
		r.ranks[i].dropped = 0
	}
}
