// Package comm is the message-passing substrate of the parallel runtime: a
// fully connected topology of ranks exchanging tagged float64 payloads over
// FIFO links, in the style of MPI point-to-point communication.
//
// Links are unbounded by default so that an eagerly pipelining sender never
// blocks (the paper's runtime assumes asynchronous sends); receives block
// until a matching message arrives. SetLinkCapacity bounds every link to
// model finite buffers — senders then block on a full link (backpressure)
// and the time spent blocked is accounted per link. Every link counts
// messages and elements so that experiments can report communication volume
// exactly.
//
// The substrate is fault-aware: SetFaults attaches a deterministic
// fault.Injector consulted on every send and receive behind a nil check
// (mirroring SetObserver), Cancel poisons the whole topology and unblocks
// every waiter, and an event-driven watchdog turns an all-ranks-blocked
// state into a structured DeadlockError instead of a hang (see cancel.go).
package comm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wavefront/internal/bufpool"
	"wavefront/internal/fault"
	"wavefront/internal/metrics"
	"wavefront/internal/trace"
)

// Message is one point-to-point transfer.
type Message struct {
	// Tag discriminates message streams between the same pair of ranks.
	Tag int
	// Data is the payload; ownership transfers to the receiver.
	Data []float64
}

// link is a FIFO queue between one ordered pair of ranks. Blocking, fault
// injection, and cancellation live on Topology; the link only owns its
// queue, its condition variable, and its accounting.
type link struct {
	mu    sync.Mutex
	cond  sync.Cond
	queue []Message
	// consumed counts messages dequeued over the link's lifetime — the
	// receiver-side cursor checkpoint/restart keys replay on (recovery.go).
	consumed int64
	// accounting
	messages     int64
	elements     int64
	blockedSends int64
	blockedNs    int64
}

func newLink() *link {
	l := &link{}
	l.cond.L = &l.mu
	return l
}

// Topology is a set of P ranks with a link for every ordered pair. It keeps
// one goroutine per rank and a deadlock watchdog from its first Run until
// Close, parked between Runs, and Reset readies it for the next Run in
// place. The goroutines hold the topology's state, never this handle, so a
// Topology that becomes unreachable while they run is closed by the garbage
// collector. Close disarms that: a finalizer keeps everything the handle
// reaches alive for one more collection.
type Topology struct{ *topology }

type topology struct {
	p     int
	links []*link // links[from*p+to]
	// eps are the ranks' endpoints, one per rank for the topology's life.
	eps []Endpoint
	// obs, when non-nil, is handed one event per send, receive, fired fault
	// and canceled operation (blocked-wait durations included), which it
	// records to the per-rank trace and folds into the live metrics. Set
	// before Run; read-only after.
	obs *metrics.Observer
	// inj, when non-nil, is consulted on every send and receive. Set before
	// Run; read-only after.
	inj *fault.Injector
	// capacity bounds every link's queue; 0 means unbounded. Set before
	// Run; read-only after.
	capacity int
	// pool, when non-nil, recycles payload buffers: Lease draws from it and
	// Release/ReleaseTo return to it. Set before Run; read-only after.
	pool *bufpool.Pool
	// tp delivers messages (transport.go). Always non-nil: NewTopology
	// installs the in-process channel transport. Set before Run; read-only
	// after.
	tp Transport
	// rec, when non-nil, enables restart-from-checkpoint recovery of failed
	// ranks (recovery.go). Set before Run; read-only after.
	rec *Recovery
	// retain holds per-link send retention for halo replay, indexed like
	// links; nil unless recovery is enabled. Each entry is guarded by its
	// link's mu.
	retain []retainLog
	// suppress counts sends each link must swallow after a restart because
	// the pre-crash run already delivered them (armed under link locks,
	// drained atomically on the send path).
	suppress []atomic.Int64
	// sent counts each link's logical sends at the sender, indexed like
	// links; nil unless recovery is enabled. Snapshot send cursors and
	// restart suppression read it instead of the link's enqueue count:
	// over a socket transport a frame can be written but not yet demuxed
	// into its queue, and an in-flight send missing from the cursor would
	// under-arm suppression and deliver a duplicate after restart.
	sent []atomic.Int64

	// Cancellation and deadlock-watchdog state (see cancel.go). canceled is
	// the fast-path flag; done closes when the topology is poisoned; mu
	// guards the rest. Lock order: link.mu before mu.
	canceled  atomic.Bool
	done      chan struct{}
	mu        sync.Mutex
	cause     error
	causeRank int // rank whose failure canceled the run, -1 otherwise
	running   bool
	live      int        // ranks of the current Run still executing
	blocked   int        // ranks registered as blocked in a wait
	waitGen   uint64     // bumped on every wait/live transition
	waits     []waitInfo // per-rank registered wait
	// wake pokes the deadlock watchdog (buffered, so the all-blocked
	// notification never blocks and coalesces while a check is in flight);
	// nil while the topology's goroutines are not running.
	wake chan struct{}

	// The rank goroutines' hand-shake (see serve): start[r] hands rank r's
	// goroutine a Run, one token per Run, and is nil while the goroutines
	// are not running; body and errs are the Run in flight's, written before
	// the tokens are sent and read after ranksDone, which counts the ranks
	// out of the Run. exited counts the goroutines out of the topology's
	// life.
	start     []chan struct{}
	body      func(e *Endpoint) error
	errs      []error
	ranksDone sync.WaitGroup
	exited    sync.WaitGroup
}

// NewTopology creates a topology of p ranks. It starts no goroutine until
// its first Run.
func NewTopology(p int) (*Topology, error) {
	if p < 1 {
		return nil, fmt.Errorf("comm: topology needs at least 1 rank, got %d", p)
	}
	t := &topology{
		p:         p,
		links:     make([]*link, p*p),
		eps:       make([]Endpoint, p),
		done:      make(chan struct{}),
		causeRank: -1,
		waits:     make([]waitInfo, p),
		errs:      make([]error, p),
	}
	for i := range t.links {
		t.links[i] = newLink()
	}
	for r := range t.eps {
		t.eps[r] = Endpoint{rank: r, topo: t}
	}
	t.tp = chanTransport{t}
	return &Topology{t}, nil
}

// P returns the number of ranks.
func (t *topology) P() int { return t.p }

// SetObserver attaches the run's observer (metrics.Observe over at least P
// ranks). Must be called before Run; a nil observer (the default) disables
// tracing and metrics at the cost of one pointer comparison per operation.
func (t *topology) SetObserver(o *metrics.Observer) { t.obs = o }

// SetFaults attaches a fault injector consulted on every send and receive.
// Must be called before Run; a nil injector disables injection (the
// default) at the cost of one pointer comparison per operation. Attaching
// an injector drops any buffer pool: injected duplicates and corruptions
// alias payload buffers, which a recycling pool must never see.
func (t *topology) SetFaults(in *fault.Injector) {
	t.inj = in
	if in != nil {
		t.pool = nil
	}
}

// SetBufPool attaches a buffer pool sized for at least P ranks: Lease then
// draws payload buffers from the caller's shard and Release/ReleaseTo
// return them. Must be called before Run; a nil pool disables recycling
// (the default) at the cost of one pointer comparison per operation, the
// same contract as SetObserver. Pooling is incompatible with fault injection
// (ActDuplicate enqueues one payload twice; ActCorrupt swaps payloads),
// so SetBufPool fails while an injector is attached.
func (t *topology) SetBufPool(p *bufpool.Pool) error {
	if p == nil {
		t.pool = nil
		return nil
	}
	if t.inj != nil {
		return errors.New("comm: buffer pooling is incompatible with fault injection; detach the injector first")
	}
	if p.Procs() < t.p {
		return fmt.Errorf("comm: buffer pool sized for %d ranks, topology has %d", p.Procs(), t.p)
	}
	t.pool = p
	return nil
}

// BufPool returns the attached pool (nil when pooling is disabled).
func (t *topology) BufPool() *bufpool.Pool { return t.pool }

// SetLinkCapacity bounds every link to at most n queued messages; senders
// block on a full link until the receiver drains it (backpressure mode).
// n = 0 restores the default unbounded behavior. Must be called before Run.
func (t *topology) SetLinkCapacity(n int) error {
	if n < 0 {
		return fmt.Errorf("comm: link capacity must be >= 0, got %d", n)
	}
	if n > 0 {
		if _, sock := t.tp.(*sockTransport); sock {
			return errors.New("comm: bounded links are incompatible with socket transports; backpressure needs the in-process transport")
		}
	}
	t.capacity = n
	return nil
}

func (t *topology) link(from, to int) *link { return t.links[from*t.p+to] }

func (t *topology) linkIndex(from, to int) int { return from*t.p + to }

// Endpoint returns rank r's handle for sending and receiving, the same one
// for the topology's life.
func (t *topology) Endpoint(r int) *Endpoint {
	if r < 0 || r >= t.p {
		panic(fmt.Sprintf("comm: endpoint rank %d out of range [0,%d)", r, t.p))
	}
	return &t.eps[r]
}

// Stats is a snapshot of communication volume.
type Stats struct {
	Messages int64
	Elements int64
	// BlockedSends counts sends that had to wait for space on a
	// capacity-bounded link; BlockedSendTime is their summed wait.
	BlockedSends    int64
	BlockedSendTime time.Duration
}

// Bytes reports the volume in bytes at 8 bytes per element.
func (s Stats) Bytes() int64 { return s.Elements * 8 }

// Stats sums message, element, and blocked-send counts over all links.
func (t *topology) Stats() Stats {
	var s Stats
	for _, l := range t.links {
		l.mu.Lock()
		s.Messages += l.messages
		s.Elements += l.elements
		s.BlockedSends += l.blockedSends
		s.BlockedSendTime += time.Duration(l.blockedNs)
		l.mu.Unlock()
	}
	return s
}

// PendingMessages reports the number of sent-but-unreceived messages, which
// must be zero after a quiescent parallel section. Useful as a test oracle.
func (t *topology) PendingMessages() int {
	n := 0
	for _, l := range t.links {
		l.mu.Lock()
		n += len(l.queue)
		l.mu.Unlock()
	}
	return n
}

// enqueue appends m to the from→to link queue, blocking while the link is
// at capacity. It reports the time spent blocked and fails if the topology
// is canceled while waiting. Every transport's delivery terminates here, so
// link accounting, backpressure, and send retention are transport-agnostic.
func (t *topology) enqueue(from, to int, m Message) (time.Duration, error) {
	l := t.link(from, to)
	l.mu.Lock()
	var blocked time.Duration
	if t.capacity > 0 && len(l.queue) >= t.capacity {
		// Bounded links exist on the in-process transport only, so a full
		// link always spins first (see spinWait).
		t0 := time.Now()
		for len(l.queue) >= t.capacity && !t.canceled.Load() && spinWait(&l.mu, t0) {
		}
		if len(l.queue) >= t.capacity && !t.canceled.Load() {
			t.beginWait(from, waitInfo{
				op: waitSend, peer: to, tag: m.Tag,
				link: t.linkIndex(from, to), queueLen: len(l.queue),
			})
			for len(l.queue) >= t.capacity && !t.canceled.Load() {
				l.cond.Wait()
			}
			t.endWait(from)
		}
		blocked = time.Since(t0)
		l.blockedSends++
		l.blockedNs += int64(blocked)
		if len(l.queue) >= t.capacity {
			l.mu.Unlock()
			return blocked, t.cancelError()
		}
	}
	l.queue = append(l.queue, m)
	l.messages++
	l.elements += int64(len(m.Data))
	if t.retain != nil {
		t.retainLocked(t.linkIndex(from, to), from, m)
	}
	l.mu.Unlock()
	l.cond.Broadcast()
	return blocked, nil
}

// dequeue pops the next message on the from→to link, blocking while the
// link is empty. It reports the time spent blocked and fails on a tag
// mismatch or if the topology is canceled while waiting.
func (t *topology) dequeue(from, to, tag int) (Message, time.Duration, error) {
	l := t.link(from, to)
	l.mu.Lock()
	defer l.mu.Unlock()
	var blocked time.Duration
	if len(l.queue) == 0 {
		// Only the empty-queue path pays for timestamps: the receiver is
		// about to block anyway, so the cost vanishes into the wait.
		t0 := time.Now()
		for t.spins() && len(l.queue) == 0 && !t.canceled.Load() && spinWait(&l.mu, t0) {
		}
		if len(l.queue) == 0 && !t.canceled.Load() {
			t.beginWait(to, waitInfo{
				op: waitRecv, peer: from, tag: tag, link: t.linkIndex(from, to),
			})
			for len(l.queue) == 0 && !t.canceled.Load() {
				l.cond.Wait()
			}
			t.endWait(to)
		}
		blocked = time.Since(t0)
		if len(l.queue) == 0 {
			return Message{}, blocked, t.cancelError()
		}
	}
	m := l.queue[0]
	if m.Tag != tag {
		return Message{}, blocked, fmt.Errorf(
			"comm: tag mismatch on link %d→%d: rank %d expects tag %d from rank %d, but the head-of-line message carries tag %d (queue depth %d)",
			from, to, to, tag, from, m.Tag, len(l.queue))
	}
	copy(l.queue, l.queue[1:])
	l.queue = l.queue[:len(l.queue)-1]
	l.consumed++
	if t.capacity > 0 {
		l.cond.Broadcast() // space freed: wake blocked senders
	}
	return m, blocked, nil
}

// Endpoint is one rank's view of the topology.
type Endpoint struct {
	rank int
	topo *topology
}

// Rank returns the endpoint's rank.
func (e *Endpoint) Rank() int { return e.rank }

// P returns the topology size.
func (e *Endpoint) P() int { return e.topo.p }

// Lease returns a payload buffer of length n with unspecified contents,
// drawn from this rank's pool shard when a pool is attached and freshly
// allocated otherwise. Sending a leased buffer transfers ownership to the
// receiver, which returns it with ReleaseTo(sender, buf).
func (e *Endpoint) Lease(n int) []float64 { return e.topo.pool.Get(e.rank, n) }

// ReleaseTo returns a received buffer to rank's pool shard — pass the
// sending rank, so the shard that leased the buffer is the one refilled.
// In a steady one-way pipeline this is what keeps the upstream sender's
// free list stocked. A no-op without a pool.
func (e *Endpoint) ReleaseTo(rank int, buf []float64) {
	if rank < 0 || rank >= e.topo.p {
		rank = e.rank
	}
	e.topo.pool.Put(rank, buf)
}

// recordFault reports an injected fault firing at rank; the action code
// travels in Seq.
func (t *topology) recordFault(rank, peer, tag, elems int, out fault.Outcome) {
	if o := t.obs; o != nil {
		now := o.Now()
		ev := trace.Ev(trace.KindFault, rank, now, now)
		ev.Peer, ev.Tag, ev.Elems, ev.Seq = peer, tag, elems, int(out.Action)
		o.Emit(ev)
	}
}

// recordCancel reports an operation aborted by cancellation.
func (t *topology) recordCancel(rank, peer, tag int, start int64) {
	if o := t.obs; o != nil {
		ev := trace.Ev(trace.KindCancel, rank, start, o.Now())
		ev.Peer, ev.Tag = peer, tag
		o.Emit(ev)
	}
}

// Send delivers data to rank `to` under the given tag. Sends never block on
// unbounded links; with SetLinkCapacity they block while the link is full.
// The payload must not be mutated after sending. Send fails fast once the
// topology is canceled.
func (e *Endpoint) Send(to, tag int, data []float64) error {
	t := e.topo
	if to < 0 || to >= t.p {
		return fmt.Errorf("comm: rank %d sending to invalid rank %d", e.rank, to)
	}
	if to == e.rank {
		return fmt.Errorf("comm: rank %d sending to itself", e.rank)
	}
	if t.canceled.Load() {
		return t.cancelError()
	}
	if t.suppress != nil {
		// A restarted rank replays its wave loop from the last snapshot; the
		// sends it re-issues up to the pre-crash cursor were already
		// delivered (and possibly consumed) before the crash, so they are
		// swallowed here — before the injector, so fault rules don't re-fire,
		// and before link accounting, so Stats match a fault-free run.
		if s := &t.suppress[t.linkIndex(e.rank, to)]; s.Load() > 0 && s.Add(-1) >= 0 {
			if t.pool != nil {
				t.pool.Put(e.rank, data)
			}
			return nil
		}
	}
	dup := false
	if out, fired := t.inj.OnSend(e.rank, to, tag, data); fired {
		t.recordFault(e.rank, to, tag, len(data), out)
		switch out.Action {
		case fault.ActDelay:
			time.Sleep(out.Delay)
		case fault.ActDrop:
			return nil // the send "succeeds"; the message is gone
		case fault.ActDuplicate:
			dup = true
		case fault.ActCorrupt:
			data = out.Data
		case fault.ActStall:
			return t.stall(e.rank, to, tag, fault.OpSend)
		case fault.ActCrash:
			return t.inj.Crash(out, fault.OpSend, e.rank, to, tag)
		}
	}
	o := t.obs
	t0 := o.Now()
	if t.sent != nil {
		// Counted before the transport write so an in-flight frame is
		// already covered by any cursor or suppression arithmetic.
		t.sent[t.linkIndex(e.rank, to)].Add(1)
	}
	blocked, err := t.tp.Send(e.rank, to, Message{Tag: tag, Data: data})
	if err != nil {
		t.recordCancel(e.rank, to, tag, t0)
		return err
	}
	if o != nil {
		if blocked > 0 {
			bev := trace.Ev(trace.KindBlockedSend, e.rank, t0, t0+int64(blocked))
			bev.Peer, bev.Tag, bev.Blocked = to, tag, int64(blocked)
			o.Emit(bev)
		}
		ev := trace.Ev(trace.KindSend, e.rank, t0, o.Now())
		ev.Peer, ev.Tag, ev.Elems, ev.Blocked = to, tag, len(data), int64(blocked)
		o.Emit(ev)
	}
	if dup {
		// The injected copy is the fault's doing, not a send of the
		// program's: the KindFault event above is its whole record.
		if t.sent != nil {
			t.sent[t.linkIndex(e.rank, to)].Add(1)
		}
		if _, err := t.tp.Send(e.rank, to, Message{Tag: tag, Data: data}); err != nil {
			return err
		}
	}
	return nil
}

// Recv blocks until the next message from rank `from` arrives and returns
// its payload. The head-of-line message must carry the expected tag;
// deterministic programs receive in send order. Recv fails fast once the
// topology is canceled.
func (e *Endpoint) Recv(from, tag int) ([]float64, error) {
	t := e.topo
	if from < 0 || from >= t.p {
		return nil, fmt.Errorf("comm: rank %d receiving from invalid rank %d", e.rank, from)
	}
	if from == e.rank {
		return nil, fmt.Errorf("comm: rank %d receiving from itself", e.rank)
	}
	if t.canceled.Load() {
		return nil, t.cancelError()
	}
	if out, fired := t.inj.OnRecv(e.rank, from, tag); fired {
		t.recordFault(e.rank, from, tag, 0, out)
		switch out.Action {
		case fault.ActDelay:
			time.Sleep(out.Delay)
		case fault.ActStall:
			return nil, t.stall(e.rank, from, tag, fault.OpRecv)
		case fault.ActCrash:
			return nil, t.inj.Crash(out, fault.OpRecv, e.rank, from, tag)
		}
	}
	o := t.obs
	t0 := o.Now()
	m, blocked, err := t.tp.Recv(from, e.rank, tag)
	if err != nil {
		if errors.Is(err, ErrCanceled) {
			t.recordCancel(e.rank, from, tag, t0)
		}
		return nil, err
	}
	if o != nil {
		ev := trace.Ev(trace.KindRecv, e.rank, t0, o.Now())
		ev.Peer, ev.Tag, ev.Elems, ev.Blocked = from, tag, len(m.Data), int64(blocked)
		o.Emit(ev)
	}
	return m.Data, nil
}

// Run hands body to every rank's goroutine — started by the first Run, or
// the first after Close, and parked between Runs — and waits for all of
// them. It is the SPMD entry point of the runtime. When a rank's body
// returns an error, the topology is canceled so blocked peers unwind
// instead of hanging, and Run reports that rank's error wrapped with the
// cancellation; a watchdog-diagnosed deadlock surfaces as a DeadlockError.
// The topology keeps its link counters and a cancellation until Reset.
func (h *Topology) Run(body func(e *Endpoint) error) error {
	defer runtime.KeepAlive(h) // Close, the finalizer's too, must not overlap a Run
	t := h.topology
	t.mu.Lock()
	if t.running {
		t.mu.Unlock()
		return errors.New("comm: Run already in progress on this topology")
	}
	t.running = true
	t.live = t.p
	t.waitGen++
	t.mu.Unlock()

	t.body = body
	t.ranksDone.Add(t.p)
	if t.start == nil {
		t.spawn()
		// A dropped topology's goroutines are told to stop, and not waited
		// for: the collection that found it makes no goroutine block.
		runtime.SetFinalizer(h, func(h *Topology) { h.stop(false); h.tp.Close() })
	} else {
		for _, start := range t.start {
			start <- struct{}{}
		}
	}
	t.ranksDone.Wait()
	t.body = nil

	t.mu.Lock()
	t.running = false
	canceled, cause, causeRank := t.canceled.Load(), t.cause, t.causeRank
	t.mu.Unlock()
	errs := t.errs
	defer clear(errs)
	if canceled {
		if causeRank >= 0 {
			return fmt.Errorf("comm: rank %d failed, peers canceled: %w", causeRank, cause)
		}
		var dl *DeadlockError
		if errors.As(cause, &dl) {
			return dl
		}
		return &CancelError{Cause: cause}
	}
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("comm: rank %d: %w", r, err)
		}
	}
	return nil
}

// spawn starts the watchdog and the rank goroutines, each with the Run's
// token already in its start channel: a goroutine that had to park for its
// first token would be woken onto the spawning goroutine's processor, behind
// it, instead of running where the scheduler put it. A channel holds one
// token, so a Run never waits to hand a rank its token.
func (t *topology) spawn() {
	wake := make(chan struct{}, 1)
	t.mu.Lock()
	t.wake = wake
	t.mu.Unlock()
	t.start = make([]chan struct{}, t.p)
	t.exited.Add(t.p + 1)
	go t.watchdog(wake)
	for r := range t.start {
		t.start[r] = make(chan struct{}, 1)
		t.start[r] <- struct{}{}
		go t.serve(r, t.start[r])
	}
}

// serve is rank r's goroutine: for every token, run the Run's body —
// restarting it in place while recovery grants a restart — and check out;
// return when stop closes the channel.
func (t *topology) serve(r int, start <-chan struct{}) {
	defer t.exited.Done()
	ep := &t.eps[r]
	for range start {
		body := t.body
		err := body(ep)
		// Recovery: a recoverable failure restarts the body in this same
		// goroutine — the rank never retires, so the watchdog keeps
		// counting it live and peers blocked on its messages are simply
		// waiting, not deadlocked.
		for attempt := 1; err != nil && t.tryRestart(r, attempt, err); attempt++ {
			err = body(ep)
		}
		t.errs[r] = err
		if err != nil && !errors.Is(err, ErrCanceled) {
			// Cancel before retiring so the watchdog can never diagnose
			// a "deadlock" among peers this failure is about to unblock.
			t.cancel(r, err)
		}
		t.rankDone(r)
		t.ranksDone.Done()
	}
}

// stop retires the rank goroutines and the watchdog and, with wait, returns
// once they have exited; a later Run starts them again. Must not overlap a
// Run.
func (t *topology) stop(wait bool) {
	if t.start == nil {
		return
	}
	for _, start := range t.start {
		close(start)
	}
	t.start = nil
	t.mu.Lock()
	wake := t.wake
	t.wake = nil
	t.mu.Unlock()
	close(wake)
	if wait {
		t.exited.Wait()
	}
}

// Reset readies the topology for its next Run as if it were new, keeping
// its goroutines, transport and settings: it empties every link queue
// (keeping its capacity), zeroes the link counters Stats and the
// checkpoint cursors read, clears a cancellation, and drops the send
// retention and suppression of a recovery. Must not overlap a Run.
func (t *topology) Reset() {
	for i, l := range t.links {
		l.mu.Lock()
		clear(l.queue[:cap(l.queue)])
		l.queue = l.queue[:0]
		l.consumed, l.messages, l.elements, l.blockedSends, l.blockedNs = 0, 0, 0, 0, 0
		if t.retain != nil {
			clear(t.retain[i].msgs[:cap(t.retain[i].msgs)])
			t.retain[i] = retainLog{msgs: t.retain[i].msgs[:0]}
			t.sent[i].Store(0)
			t.suppress[i].Store(0)
		}
		l.mu.Unlock()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.canceled.Load() {
		t.canceled.Store(false)
		t.done = make(chan struct{})
	}
	t.cause, t.causeRank = nil, -1
	t.blocked = 0
	clear(t.waits)
	t.waitGen++
}
