package trace

import "fmt"

// Layout maps a recorder's rings to ranks. Rings 0..Procs-1 are the ranks'
// own; each rank then owns Workers consecutive rings for its task-DAG
// workers (worker 0 is the rank's goroutine, so the rank writes both of
// its rings from one goroutine).
type Layout struct{ Procs, Workers int }

// WorkerBase returns the first ring rank's workers write.
func (l Layout) WorkerBase(rank int) int { return l.Procs + rank*l.Workers }

// RankOf returns the rank a ring belongs to; a ring past the layout folds
// into the last rank.
func (l Layout) RankOf(ring int) int {
	if ring < l.Procs {
		return ring
	}
	if l.Workers > 0 && (ring-l.Procs)/l.Workers < l.Procs {
		return (ring - l.Procs) / l.Workers
	}
	return l.Procs - 1
}

// fit settles a layout against the rings a trace really has: no rank count
// (or one past the rings) makes every ring a rank, and no worker count
// shares the rings past the ranks out evenly.
func (l Layout) fit(rings int) Layout {
	if l.Procs <= 0 || l.Procs > rings {
		l.Procs = rings
	}
	if l.Workers <= 0 && l.Procs > 0 {
		l.Workers = (rings - l.Procs) / l.Procs
	}
	return l
}

// Node is one event in the causal index.
type Node struct {
	Ev   Event
	Ring int // == Ev.Rank
	Pos  int // record order within the ring
	// Msg is the send a receive was matched with, first in first out per
	// (src, dst, tag) for point-to-point and per (src, dst, wave, seq) for
	// boundary messages; nil on an unmatched receive.
	Msg *Node
	// Deps are the tiles a task tile's dependence markers claim had
	// finished (and, on a marker, the one tile it names).
	Deps []*Node
	// taken marks a send some receive was matched with.
	taken bool
}

// Index is the causal structure of a recorded run, the one thing both the
// schedule validator (Check) and the critical-path analyzer (the backward
// walk in internal/critpath) read: rings in record order — a ring is
// written at span end by one goroutine, so record order is end-time order —
// with every receive tied to its send and every task tile to the tiles it
// waited for.
type Index struct {
	Layout
	Rings [][]*Node
	// Disrupted marks a trace in which pairing cannot be expected to hold:
	// an injected fault, a cancellation or a restore fired, or the rings
	// dropped events.
	Disrupted bool
	// WaveEdges are the matched boundary receives (Msg set), in ring order.
	WaveEdges []*Node

	tiles map[taskKey]*Node
}

type edgeKey struct {
	wave      bool
	src, dst  int
	tagOrWave int
	seq       int
}

// edgeOf names the message a send or receive event moved from src to dst.
func edgeOf(ev *Event, src, dst int) edgeKey {
	if ev.Kind == KindWaveSend || ev.Kind == KindWaveRecv {
		return edgeKey{true, src, dst, ev.Wave, ev.Seq}
	}
	return edgeKey{false, src, dst, ev.Tag, 0}
}

type taskKey struct{ wave, tile int }

// NewIndex builds the index over a completed run's events as
// Recorder.Events returns them: ring by ring, record order within a ring.
// Task-DAG wave identities are unique per graph run in the process, so a
// tile is named by (wave, tile) whatever ring ran it.
func NewIndex(events []Event, l Layout, dropped int64) *Index {
	ix := &Index{Disrupted: dropped > 0, tiles: map[taskKey]*Node{}}
	var count []int // events per ring
	for i := range events {
		for events[i].Rank >= len(count) {
			count = append(count, 0)
		}
		count[events[i].Rank]++
	}
	ix.Layout = l.fit(len(count))
	ix.Rings = make([][]*Node, len(count))
	backing := make([]*Node, len(events))
	for r, n := range count {
		ix.Rings[r], backing = backing[:0:n], backing[n:]
	}
	nodes := make([]Node, len(events))
	sends := map[edgeKey][]*Node{}
	for i := range events {
		n := &nodes[i]
		n.Ev, n.Ring, n.Pos = events[i], events[i].Rank, len(ix.Rings[events[i].Rank])
		ix.Rings[n.Ring] = append(ix.Rings[n.Ring], n)
		switch ev := &n.Ev; ev.Kind {
		case KindFault, KindCancel, KindRestore:
			ix.Disrupted = true
		case KindSend, KindWaveSend:
			k := edgeOf(ev, n.Ring, ev.Peer)
			sends[k] = append(sends[k], n)
		case KindTaskTile:
			ix.tiles[taskKey{ev.Wave, ev.Tile}] = n
		}
	}
	// Sends with one key all come from one ring, so index order is send
	// order and the head of the queue is the oldest unmatched one.
	for _, ring := range ix.Rings {
		for _, n := range ring {
			switch ev := &n.Ev; ev.Kind {
			case KindRecv, KindWaveRecv:
				k := edgeOf(ev, ev.Peer, n.Ring)
				q := sends[k]
				if len(q) == 0 {
					continue
				}
				n.Msg, sends[k] = q[0], q[1:]
				n.Msg.taken = true
				if ev.Kind == KindWaveRecv {
					ix.WaveEdges = append(ix.WaveEdges, n)
				}
			case KindTaskDep:
				// The edge belongs to the marker's tile, and to the marker:
				// zero-width, it sits between its tile and the tile's ring
				// predecessor in record order, and without an edge of its own
				// would hide the tile's from a walk that binds to the
				// latest-ending predecessor.
				p := ix.tiles[taskKey{ev.Wave, ev.Seq}]
				if p == nil {
					continue
				}
				n.Deps = append(n.Deps, p)
				if t := ix.tiles[taskKey{ev.Wave, ev.Tile}]; t != nil {
					t.Deps = append(t.Deps, p)
				}
			}
		}
	}
	return ix
}

// Finding is one broken invariant of a recorded schedule.
type Finding struct {
	// Kind is "unmatched-send" or "unmatched-recv" (pairing, reported only
	// when the trace is not Disrupted), "causality" (a receive that ends
	// before its matched send starts), "wavefront" (a tile computed before
	// an upstream boundary message it needs) or "task" (a task-DAG tile run
	// twice, or before a tile it depends on finished).
	Kind   string
	Detail string
}

// Check holds the indexed schedule to the invariants the runtime's
// correctness rests on and returns what it finds broken, in ring order:
//
//  1. Pairing: every send — point-to-point by (src, dst, tag), boundary
//     message by (src, dst, wave, seq) — is matched by one receive and
//     every receive by one send, in order per key (tags and wave numbers
//     restart with every Run a recorder sees). A Disrupted trace relaxes
//     this: injected drops, cancellations and a restart's replayed
//     messages strand sends and receives legitimately.
//  2. Causality: a receive ends no earlier than its matched send starts.
//  3. Wavefront safety: a tile's compute span that declares an upstream
//     dependence (Need >= 0, Peer >= 0) begins only after boundary
//     messages 0..Need of its sweep have all been received on its ring,
//     in its own Run (a scatter opens one).
//  4. Dynamic-schedule safety: under the task-DAG scheduler a tile runs
//     once per graph run, and every dependence edge the scheduler recorded
//     points at a tile whose span ended before the depending tile started.
//
// (2) to (4) are never relaxed: even a canceled run must not have computed
// a tile before its dependences were satisfied.
func (ix *Index) Check() []Finding {
	var out []Finding
	addf := func(kind, format string, args ...any) {
		out = append(out, Finding{kind, fmt.Sprintf(format, args...)})
	}
	type sweepKey struct{ peer, wave int }
	for _, ring := range ix.Rings {
		// got holds, per sweep, the boundary receives of its latest
		// instance by sequence number.
		got := map[sweepKey][]*Node{}
		for _, n := range ring {
			switch ev := &n.Ev; ev.Kind {
			case KindSend, KindWaveSend:
				if !n.taken && !ix.Disrupted {
					addf("unmatched-send", "%s on ring %d (dst %d, tag %d, wave %d, seq %d) has no matching receive",
						ev.Kind, n.Ring, ev.Peer, ev.Tag, ev.Wave, ev.Seq)
				}
			case KindRecv, KindWaveRecv:
				if s := n.Msg; s == nil {
					if !ix.Disrupted {
						addf("unmatched-recv", "%s on ring %d (src %d, tag %d, wave %d, seq %d) has no matching send",
							ev.Kind, n.Ring, ev.Peer, ev.Tag, ev.Wave, ev.Seq)
					}
				} else if ev.End < s.Ev.Start {
					addf("causality", "%s on ring %d ends at %dns before its send on ring %d starts at %dns (wave %d, seq %d, tag %d)",
						ev.Kind, n.Ring, ev.End, s.Ring, s.Ev.Start, ev.Wave, ev.Seq, ev.Tag)
				}
				if ev.Kind == KindWaveRecv && ev.Seq >= 0 {
					// Within one instance of a sweep the sequence numbers only
					// rise, so one seen again opens a new instance — a
					// restarted rank replaying from its cut — and what the old
					// one received from there on is forgotten.
					k := sweepKey{ev.Peer, ev.Wave}
					s := got[k]
					if ev.Seq < len(s) {
						s = s[:ev.Seq]
					}
					for len(s) < ev.Seq {
						s = append(s, nil)
					}
					got[k] = append(s, n)
				}
			case KindScatter:
				// A new Run on this ring: nothing an earlier Run received
				// vouches for its tiles.
				clear(got)
			case KindCompute:
				if ev.Need < 0 || ev.Peer < 0 {
					continue
				}
				s := got[sweepKey{ev.Peer, ev.Wave}]
				for seq := 0; seq <= ev.Need; seq++ {
					if seq >= len(s) || s[seq] == nil {
						addf("wavefront", "rank %d tile %d (wave %d): computed without boundary message %d from upstream rank %d",
							n.Ring, ev.Tile, ev.Wave, seq, ev.Peer)
					} else if r := &s[seq].Ev; r.End > ev.Start {
						addf("wavefront", "rank %d tile %d (wave %d): compute started at %dns before boundary message %d from rank %d completed at %dns",
							n.Ring, ev.Tile, ev.Wave, ev.Start, seq, ev.Peer, r.End)
					}
				}
			case KindTaskTile:
				if ix.tiles[taskKey{ev.Wave, ev.Tile}] != n {
					addf("task", "task tile %d (wave %d): executed more than once", ev.Tile, ev.Wave)
				}
			case KindTaskDep:
				if len(n.Deps) == 0 {
					addf("task", "task tile %d (wave %d): started with no execution record for predecessor tile %d",
						ev.Tile, ev.Wave, ev.Seq)
				} else if p := &n.Deps[0].Ev; p.End > ev.Start {
					addf("task", "task tile %d (wave %d): started at %dns before predecessor tile %d completed at %dns",
						ev.Tile, ev.Wave, ev.Start, ev.Seq, p.End)
				}
			}
		}
	}
	return out
}
