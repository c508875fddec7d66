package comm

// Cooperative cancellation and deadlock diagnosis. A topology can be
// poisoned once — by a failing rank, by an external Cancel, or by the
// watchdog below — after which every blocked receiver and bounded sender
// wakes with a CancelError and every later operation fails fast.
//
// The watchdog is event-driven, not polling: the topology counts the live
// ranks of the current Run and the ranks blocked inside a send, receive, or
// injected stall. Whenever the two counts meet, a checker goroutine
// re-verifies under the link locks that every registered wait is still
// unsatisfiable (no message arrived, no queue drained) and that no wait
// transition raced the snapshot; only then does it declare a deadlock,
// snapshot the wait-for graph, and cancel the topology with a structured
// DeadlockError instead of letting the run hang.

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"wavefront/internal/fault"
)

// ErrCanceled matches (via errors.Is) every error produced by a poisoned
// topology.
var ErrCanceled = errors.New("comm: canceled")

// ErrDeadlock matches (via errors.Is) the watchdog's DeadlockError.
var ErrDeadlock = errors.New("comm: deadlock")

// CancelError is what blocked and subsequent operations return after the
// topology is poisoned; Cause is the first cancellation's reason.
type CancelError struct {
	Cause error
}

func (e *CancelError) Error() string { return fmt.Sprintf("comm: canceled: %v", e.Cause) }

// Unwrap exposes the cancellation cause to errors.Is/As.
func (e *CancelError) Unwrap() error { return e.Cause }

// Is reports ErrCanceled.
func (e *CancelError) Is(target error) bool { return target == ErrCanceled }

// WaitEntry is one node of the wait-for graph: a rank and the operation it
// is blocked in.
type WaitEntry struct {
	// Rank is the blocked rank.
	Rank int
	// Op is "recv", "send", or "stall(send)"/"stall(recv)" for a
	// fault-injected stall.
	Op string
	// Peer is the rank waited on: the source for a receive, the
	// destination for a bounded send.
	Peer int
	// Tag is the tag of the expected or outgoing message.
	Tag int
	// QueueLen is the waited link's queue depth at diagnosis time (0 for a
	// starved receiver, the capacity for a saturated sender).
	QueueLen int
}

func (w WaitEntry) String() string {
	switch w.Op {
	case "recv":
		return fmt.Sprintf("rank %d blocked in recv from rank %d (tag %d, queue empty)", w.Rank, w.Peer, w.Tag)
	case "send":
		return fmt.Sprintf("rank %d blocked in send to rank %d (tag %d, queue full at depth %d)", w.Rank, w.Peer, w.Tag, w.QueueLen)
	default:
		return fmt.Sprintf("rank %d stalled by injected fault in %s, peer %d (tag %d)", w.Rank, w.Op, w.Peer, w.Tag)
	}
}

// DeadlockError is the watchdog's structured diagnosis: every live rank was
// blocked, and Waits records who waited on whom, at which tag.
type DeadlockError struct {
	Waits []WaitEntry
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "comm: deadlock: all %d live ranks are blocked; wait-for graph:", len(e.Waits))
	for _, w := range e.Waits {
		fmt.Fprintf(&b, "\n  %s", w)
	}
	return b.String()
}

// Is reports ErrDeadlock.
func (e *DeadlockError) Is(target error) bool { return target == ErrDeadlock }

// waitOp classifies what a registered waiter is blocked in.
type waitOp uint8

const (
	waitRecv waitOp = iota
	waitSend
	waitStallSend
	waitStallRecv
)

func (o waitOp) String() string {
	switch o {
	case waitRecv:
		return "recv"
	case waitSend:
		return "send"
	case waitStallSend:
		return "stall(send)"
	default:
		return "stall(recv)"
	}
}

// waitInfo is one rank's registered wait.
type waitInfo struct {
	active   bool
	op       waitOp
	peer     int
	tag      int
	link     int // index into Topology.links; -1 for stalls
	queueLen int // queue depth observed when the wait began
}

// Cancel poisons the topology with the given cause: every blocked receiver
// and bounded sender wakes with a CancelError, and every subsequent Send or
// Recv fails fast. Cancel is idempotent — the first cause wins — and safe
// to call from any goroutine, including outside Run. A nil cause records a
// generic cancellation.
func (t *topology) Cancel(cause error) { t.cancel(-1, cause) }

// Err returns the cancellation cause, or nil while the topology is healthy.
func (t *topology) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cause
}

func (t *topology) cancel(rank int, cause error) {
	if cause == nil {
		cause = errors.New("canceled by caller")
	}
	t.mu.Lock()
	if t.canceled.Load() {
		// First cause wins — with one exception. The watchdog fires on the
		// all-blocked state an explicit cancellation itself creates, so a
		// concurrent DeadlockError can land first and masquerade as the
		// outcome when cancellation (or a real rank failure) was the true
		// cause. A real cause therefore overwrites a recorded deadlock
		// diagnosis; a deadlock diagnosis never overwrites anything.
		var have, incoming *DeadlockError
		if errors.As(t.cause, &have) && !errors.As(cause, &incoming) {
			t.cause, t.causeRank = cause, rank
		}
		t.mu.Unlock()
		return
	}
	t.cause, t.causeRank = cause, rank
	t.canceled.Store(true)
	close(t.done)
	t.mu.Unlock()
	// Wake every waiter. Taking each link lock orders the broadcast after
	// any in-flight condition check, so no waiter can miss it.
	for _, l := range t.links {
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	}
	// Socket transports additionally sever their connections so reads and
	// writes blocked in the kernel unwind too.
	t.tp.Cancel()
}

// cancelError builds the error a poisoned operation returns.
func (t *topology) cancelError() error {
	t.mu.Lock()
	cause, rank := t.cause, t.causeRank
	t.mu.Unlock()
	if rank >= 0 {
		cause = fmt.Errorf("rank %d: %w", rank, cause)
	}
	return &CancelError{Cause: cause}
}

// beginWait registers rank as blocked. When every live rank of the current
// Run is now blocked, it pokes the deadlock watchdog. Callers may hold
// the waited link's lock (the lock order is link.mu before Topology.mu;
// cancel and checkDeadlock never hold mu while taking a link lock).
func (t *topology) beginWait(rank int, w waitInfo) {
	w.active = true
	t.mu.Lock()
	t.waits[rank] = w
	t.blocked++
	t.waitGen++
	if t.live > 0 && t.blocked == t.live && !t.canceled.Load() && t.wake != nil {
		// Non-blocking: a pending poke already guarantees a fresh check.
		select {
		case t.wake <- struct{}{}:
		default:
		}
	}
	t.mu.Unlock()
}

// endWait deregisters rank after it wakes.
func (t *topology) endWait(rank int) {
	t.mu.Lock()
	t.waits[rank].active = false
	t.blocked--
	t.waitGen++
	t.mu.Unlock()
}

// rankDone retires a Run participant; the remaining live ranks may now all
// be blocked, so the deadlock condition is re-evaluated.
func (t *topology) rankDone(rank int) {
	t.mu.Lock()
	t.live--
	t.waitGen++
	if t.live > 0 && t.blocked == t.live && !t.canceled.Load() && t.wake != nil {
		select {
		case t.wake <- struct{}{}:
		default:
		}
	}
	t.mu.Unlock()
}

// watchdog is the deadlock checker: one goroutine kept with the ranks',
// parked between Runs and woken through the buffered wake channel whenever
// the last live rank blocks. A single goroutine with preallocated scratch
// keeps the all-blocked notification — a routine event whenever a sender's
// wake-up broadcast races a fresh wait — free of per-event allocations; a
// poke arriving mid-check coalesces into the buffered slot and triggers one
// more check, so no suspicion is ever dropped. A poke left over from an
// earlier Run finds no live rank, or a wait generation that moved on.
func (t *topology) watchdog(wake <-chan struct{}) {
	defer t.exited.Done()
	suspects := make([]suspect, 0, t.p)
	entries := make([]WaitEntry, 0, t.p)
	for range wake {
		t.checkDeadlock(suspects, entries)
	}
}

// suspect is one registered wait under deadlock suspicion.
type suspect struct {
	rank int
	w    waitInfo
}

// checkDeadlock verifies a suspected deadlock and, if confirmed, cancels
// the topology with the wait-for diagnosis. The suspicion is confirmed only
// if (a) every registered wait is still unsatisfiable under its link lock
// and (b) no wait transition happened concurrently (the generation counter
// is unchanged) — every blocked rank is in cond.Wait, so the state it
// verified cannot move afterwards. The scratch slices are the watchdog's;
// confirmed diagnoses are cloned out of them.
func (t *topology) checkDeadlock(suspects []suspect, entries []WaitEntry) {
	t.mu.Lock()
	if t.canceled.Load() || t.live == 0 || t.blocked != t.live {
		t.mu.Unlock()
		return
	}
	gen, capacity := t.waitGen, t.capacity
	suspects = suspects[:0]
	for r := range t.waits {
		if t.waits[r].active {
			suspects = append(suspects, suspect{r, t.waits[r]})
		}
	}
	t.mu.Unlock()

	// Over a socket transport a frame can be in flight — written by the
	// sender but not yet demuxed into its link queue — so an all-blocked
	// state with empty queues is not yet a deadlock. Delivery is imminent;
	// re-arm the check instead of confirming.
	if f, ok := t.tp.(interface{ InFlight() int64 }); ok && f.InFlight() > 0 {
		time.AfterFunc(time.Millisecond, t.pokeWatchdog)
		return
	}

	entries = entries[:0]
	for _, s := range suspects {
		qlen := s.w.queueLen
		if s.w.link >= 0 {
			l := t.links[s.w.link]
			l.mu.Lock()
			qlen = len(l.queue)
			satisfiable := false
			switch s.w.op {
			case waitRecv:
				satisfiable = qlen > 0
			case waitSend:
				satisfiable = qlen < capacity
			}
			l.mu.Unlock()
			if satisfiable {
				return // someone can make progress: not a deadlock
			}
		}
		entries = append(entries, WaitEntry{
			Rank: s.rank, Op: s.w.op.String(), Peer: s.w.peer, Tag: s.w.tag, QueueLen: qlen,
		})
	}

	t.mu.Lock()
	stable := gen == t.waitGen && !t.canceled.Load()
	t.mu.Unlock()
	if !stable {
		return // a rank progressed while we looked; any new all-blocked state re-triggers
	}
	t.cancel(-1, &DeadlockError{Waits: append([]WaitEntry(nil), entries...)})
}

// pokeWatchdog re-triggers the deadlock check while the watchdog runs; with
// no Run in flight the check finds no live rank and returns.
func (t *topology) pokeWatchdog() {
	t.mu.Lock()
	if t.wake != nil && !t.canceled.Load() {
		select {
		case t.wake <- struct{}{}:
		default:
		}
	}
	t.mu.Unlock()
}

// stall implements the injector's ActStall: the rank parks — visible to the
// deadlock detector — until the topology is canceled, then reports the
// cancellation.
func (t *topology) stall(rank, peer, tag int, op fault.Op) error {
	w := waitInfo{op: waitStallSend, peer: peer, tag: tag, link: -1}
	if op == fault.OpRecv {
		w.op = waitStallRecv
	}
	t.beginWait(rank, w)
	<-t.done
	t.endWait(rank)
	return t.cancelError()
}
