package comm

// Restart-from-checkpoint recovery. The topology does not know what a
// checkpoint contains — that is the ckpt package's business — it owns the
// communication half of the problem: which halo messages a restarted rank
// already received (they must be replayed into its link queues) and which
// it already sent (the re-issued copies must be swallowed so peers never
// see duplicates).
//
// The mechanism rests on per-link message counts, not tags: collective
// tags repeat across waves, counts never do. While recovery is armed,
// enqueue retains a copy of every message per link (retainLog). A rank's
// checkpoint records, per peer link, the inbound consumed count and the
// outbound sender-side logical send count at the snapshot instant — its
// "cursors". On restart:
//
//   - replayInbound re-prepends retained inbound messages from the cursor
//     up to whatever the crashed body had consumed, restoring the link
//     queue exactly as it stood at the snapshot;
//   - armSuppression counts, per outbound link, the sends the pre-crash
//     body issued beyond the cursor — the restarted body will re-issue
//     them and Endpoint.Send swallows exactly that many.
//
// Retained messages below every consumer's cursor are released via
// TrimRetained after each successful snapshot, bounding retention to one
// checkpoint interval per link.

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Recovery configures restart-from-checkpoint for Run. Cursors is the
// bridge to the checkpoint store: given a failed rank it returns the
// per-peer inbound (consumed) and outbound (sent) link cursors recorded in
// that rank's latest snapshot, or ok=false when no snapshot exists (the
// failure is then not recoverable).
type Recovery struct {
	// MaxRestarts bounds the total restarts across all ranks of one Run
	// (default defaultMaxRestarts).
	MaxRestarts int
	// Recoverable reports whether a given rank failure may be recovered;
	// nil means every failure is eligible. Crash-fault injection installs a
	// predicate matching only the injected CrashError here.
	Recoverable func(rank int, err error) bool
	// Cursors returns the failed rank's snapshot link cursors: recv[p] is
	// the consumed count on the p→rank link, send[p] the logical send
	// count on the rank→p link. ok=false means no snapshot exists.
	Cursors func(rank int) (recv, send []int64, ok bool)
	// OnRestart, when non-nil, observes every successful re-arm just before
	// the body re-runs: the rank, the restart attempt (1-based, across the
	// whole Run), and how many inbound messages were replayed.
	OnRestart func(rank, attempt, replayed int)

	restarts atomic.Int64
}

// retainLog is one link's send retention: msgs[i] is the message whose
// 1-based enqueue ordinal is base+i+1. Guarded by the link's mu.
type retainLog struct {
	base int64
	msgs []Message
}

// SetRecovery arms restart-from-checkpoint recovery. Must be called before
// Run; passing nil disarms it and drops the retention logs. While armed,
// every enqueue retains a payload copy until TrimRetained releases it.
// Arming again starts the logs afresh in the storage of the last arming.
func (t *topology) SetRecovery(rec *Recovery) error {
	if rec == nil {
		t.rec = nil
		t.retain = nil
		t.suppress = nil
		t.sent = nil
		return nil
	}
	if rec.Cursors == nil {
		return errors.New("comm: Recovery needs a Cursors callback (the checkpoint store bridge)")
	}
	if rec.MaxRestarts == 0 {
		rec.MaxRestarts = defaultMaxRestarts
	}
	t.rec = rec
	if t.retain == nil {
		t.retain = make([]retainLog, t.p*t.p)
		t.sent = make([]atomic.Int64, t.p*t.p)
		t.suppress = make([]atomic.Int64, t.p*t.p)
	}
	for i, l := range t.links {
		l.mu.Lock()
		msgs := t.retain[i].msgs
		clear(msgs[:cap(msgs)])
		t.retain[i] = retainLog{base: l.messages, msgs: msgs[:0]}
		t.sent[i].Store(l.messages)
		t.suppress[i].Store(0)
		l.mu.Unlock()
	}
	return nil
}

// retainLocked appends a copy of m to link idx's retention log. Called from
// enqueue with the link's mu held. With a pool attached the copy is a
// leased buffer from the sender's shard (the queued original is owned by
// the receiver and will be released by it — the two must never alias).
func (t *topology) retainLocked(idx, from int, m Message) {
	cp := m
	if t.pool != nil {
		cp.Data = t.pool.Get(from, len(m.Data))
	} else {
		cp.Data = make([]float64, len(m.Data))
	}
	copy(cp.Data, m.Data)
	t.retain[idx].msgs = append(t.retain[idx].msgs, cp)
}

// TrimRetained releases rank's inbound retention below the given per-peer
// consumed cursors — called after rank persists a snapshot, since no
// restart will ever need messages the snapshot already covers.
func (t *topology) TrimRetained(rank int, recv []int64) {
	if t.retain == nil {
		return
	}
	for from := 0; from < t.p; from++ {
		if from == rank {
			continue
		}
		idx := t.linkIndex(from, rank)
		l := t.links[idx]
		l.mu.Lock()
		rl := &t.retain[idx]
		if drop := recv[from] - rl.base; drop > 0 {
			if drop > int64(len(rl.msgs)) {
				drop = int64(len(rl.msgs))
			}
			if t.pool != nil {
				for _, m := range rl.msgs[:drop] {
					t.pool.Put(from, m.Data)
				}
			}
			rest := copy(rl.msgs, rl.msgs[drop:])
			for i := rest; i < len(rl.msgs); i++ {
				rl.msgs[i] = Message{} // release the backing arrays
			}
			rl.msgs = rl.msgs[:rest]
			rl.base += drop
		}
		l.mu.Unlock()
	}
}

// tryRestart decides whether rank's failure is recoverable and, when it
// is, rewinds the communication state to the rank's last snapshot. It runs
// on the failed rank's goroutine between body invocations.
func (t *topology) tryRestart(rank int, attempt int, err error) bool {
	rec := t.rec
	if rec == nil || errors.Is(err, ErrCanceled) || t.canceled.Load() {
		return false
	}
	if rec.Recoverable != nil && !rec.Recoverable(rank, err) {
		return false
	}
	if rec.restarts.Add(1) > int64(rec.MaxRestarts) {
		return false
	}
	recv, send, ok := rec.Cursors(rank)
	if !ok {
		return false
	}
	t.armSuppression(rank, send)
	replayed := t.replayInbound(rank, recv)
	if rec.OnRestart != nil {
		rec.OnRestart(rank, attempt, replayed)
	}
	return true
}

// armSuppression counts, per outbound link, how many sends the pre-crash
// body issued beyond the snapshot cursor; Endpoint.Send swallows that many
// re-issued sends after the restart.
func (t *topology) armSuppression(rank int, send []int64) {
	for to := 0; to < t.p; to++ {
		if to == rank {
			continue
		}
		idx := t.linkIndex(rank, to)
		// The sender-side logical count, not the link's enqueue count: the
		// crashed rank is the only incrementer of its own outbound counters
		// and it is not sending anymore, so the read is exact even while a
		// socket transport still has its last frames in flight.
		ahead := t.sent[idx].Load() - send[to]
		if ahead < 0 {
			panic(fmt.Sprintf("comm: rank %d snapshot send cursor %d ahead of link %d→%d count %d",
				rank, send[to], rank, to, send[to]-ahead))
		}
		t.suppress[idx].Store(ahead)
	}
}

// replayInbound re-prepends, on every inbound link, the retained messages
// the crashed body consumed beyond the snapshot cursor, and rewinds the
// link's consumed count to the cursor. The restarted body then re-receives
// exactly the sequence it saw the first time, ahead of anything peers have
// queued since. Returns the number of messages replayed.
func (t *topology) replayInbound(rank int, recv []int64) int {
	replayed := 0
	for from := 0; from < t.p; from++ {
		if from == rank {
			continue
		}
		idx := t.linkIndex(from, rank)
		l := t.links[idx]
		l.mu.Lock()
		rl := &t.retain[idx]
		lo := recv[from] - rl.base
		hi := l.consumed - rl.base
		if lo < 0 || hi > int64(len(rl.msgs)) {
			l.mu.Unlock()
			panic(fmt.Sprintf("comm: link %d→%d retention [%d,%d) cannot cover replay [%d,%d)",
				from, rank, rl.base, rl.base+int64(len(rl.msgs)), recv[from], l.consumed))
		}
		if n := int(hi - lo); n > 0 {
			head := make([]Message, 0, n+len(l.queue))
			for _, m := range rl.msgs[lo:hi] {
				cp := m
				if t.pool != nil {
					cp.Data = t.pool.Get(from, len(m.Data))
				} else {
					cp.Data = make([]float64, len(m.Data))
				}
				copy(cp.Data, m.Data)
				head = append(head, cp)
			}
			l.queue = append(head, l.queue...)
			l.consumed = recv[from]
			replayed += n
		}
		l.mu.Unlock()
		if t.capacity > 0 {
			l.cond.Broadcast()
		}
	}
	return replayed
}

// TrimRetained releases this rank's inbound retention below the given
// per-peer consumed cursors — the Endpoint view of Topology.TrimRetained,
// called after the rank persists a snapshot.
func (e *Endpoint) TrimRetained(recv []int64) { e.topo.TrimRetained(e.rank, recv) }

// RecoveryQuiescent reports whether this rank's post-restart send
// suppression has fully drained. Checkpointing code must not cut a new
// snapshot while suppression is armed: the outbound link counts then
// overstate what the restarted incarnation has logically sent, and a
// snapshot taken in that window would mis-arm a second restart. Always
// true when recovery is disabled.
func (e *Endpoint) RecoveryQuiescent() bool {
	t := e.topo
	if t.suppress == nil {
		return true
	}
	for to := 0; to < t.p; to++ {
		if to != e.rank && t.suppress[t.linkIndex(e.rank, to)].Load() > 0 {
			return false
		}
	}
	return true
}

// Cursors fills the caller's per-peer link cursors at this instant:
// recv[p] is the consumed count on the p→rank inbound link, send[p] the
// enqueued count on the rank→p outbound link. Both slices must have length
// P. Called by checkpointing code on the rank's own goroutine at a wave
// boundary — a point where no message to or from this rank is in flight,
// so the two counts are mutually consistent.
func (e *Endpoint) Cursors(recv, send []int64) {
	t := e.topo
	for p := 0; p < t.p; p++ {
		if p == e.rank {
			recv[p], send[p] = 0, 0
			continue
		}
		in := t.link(p, e.rank)
		in.mu.Lock()
		recv[p] = in.consumed
		in.mu.Unlock()
		// The sender-side logical count (exact: this rank is its only
		// incrementer), not the link's enqueue count, which lags while a
		// socket transport still has frames in flight.
		send[p] = t.sent[t.linkIndex(e.rank, p)].Load()
	}
}
