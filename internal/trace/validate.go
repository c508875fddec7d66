package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Validate replays a trace and checks the wavefront schedule invariants the
// runtime's correctness rests on:
//
//  1. Point-to-point matching: every comm-layer send with a user tag
//     (tag >= 0) pairs with exactly one receive of the same (src, dst,
//     tag), and the receive completes no earlier than the send starts.
//     Collective tags (tag < 0) are reused, so only send/recv counts must
//     agree per (src, dst, tag).
//  2. Boundary matching: every pipeline boundary message (WaveSend) pairs
//     1:1 with a WaveRecv of the same (src, dst, wave, seq).
//  3. Wavefront safety: a tile's compute span that declares an upstream
//     dependence (Need >= 0, Peer >= 0) must begin only after boundary
//     messages 0..Need from that upstream rank in the same wave run have
//     all been received.
//  4. Dynamic-schedule safety: under the task-DAG scheduler each tile
//     executes exactly once per DAG run (at most one KindTaskTile per
//     (wave, tile)), and every dependence edge the scheduler recorded
//     (KindTaskDep) points at a predecessor tile whose execution span
//     ended no later than the depending tile started. Together these pin
//     the nondeterministic pool order inside the wavefront.
//
// Disrupted traces — those containing KindFault or KindCancel events —
// relax the pairing checks (1) and (2): injected drops, duplicates, and
// cancellations legitimately break count equality, so only the ordering of
// uniquely paired messages is checked. The wavefront-safety checks (3) and
// (4) are never relaxed: even a canceled run must not have computed a tile
// before its dependencies were satisfied.
//
// Validate returns nil for a safe schedule, or an error listing up to
// maxViolations violations. Traces that dropped events cannot be checked;
// use ValidateRecorder to guard against truncation.
func Validate(events []Event) error {
	var v violations

	disrupted := false
	for _, ev := range events {
		if ev.Kind == KindFault || ev.Kind == KindCancel {
			disrupted = true
			break
		}
	}

	type pairKey struct{ src, dst, tag int }
	sends := map[pairKey][]Event{}
	recvs := map[pairKey][]Event{}
	type waveKey struct{ src, dst, wave, seq int }
	waveSends := map[waveKey][]Event{}
	waveRecvs := map[waveKey][]Event{}
	var computes []Event
	type taskKey struct{ wave, tile int }
	taskTiles := map[taskKey][]Event{}
	var taskDeps []Event

	for _, ev := range events {
		switch ev.Kind {
		case KindSend:
			k := pairKey{ev.Rank, ev.Peer, ev.Tag}
			sends[k] = append(sends[k], ev)
		case KindRecv:
			k := pairKey{ev.Peer, ev.Rank, ev.Tag}
			recvs[k] = append(recvs[k], ev)
		case KindWaveSend:
			k := waveKey{ev.Rank, ev.Peer, ev.Wave, ev.Seq}
			waveSends[k] = append(waveSends[k], ev)
		case KindWaveRecv:
			k := waveKey{ev.Peer, ev.Rank, ev.Wave, ev.Seq}
			waveRecvs[k] = append(waveRecvs[k], ev)
		case KindCompute:
			computes = append(computes, ev)
		case KindTaskTile:
			k := taskKey{ev.Wave, ev.Tile}
			taskTiles[k] = append(taskTiles[k], ev)
		case KindTaskDep:
			taskDeps = append(taskDeps, ev)
		}
	}

	// 1. Comm-layer pairing.
	for k, ss := range sends {
		rs := recvs[pairKey{k.src, k.dst, k.tag}]
		if k.tag >= 0 {
			if len(ss) != 1 || len(rs) != 1 {
				if !disrupted {
					v.addf("message (src %d, dst %d, tag %d): %d sends, %d recvs; want exactly 1:1",
						k.src, k.dst, k.tag, len(ss), len(rs))
				}
				continue
			}
			if rs[0].End < ss[0].Start {
				v.addf("message (src %d, dst %d, tag %d): recv completed at %dns before send started at %dns",
					k.src, k.dst, k.tag, rs[0].End, ss[0].Start)
			}
		} else if len(ss) != len(rs) && !disrupted {
			v.addf("collective (src %d, dst %d, tag %d): %d sends but %d recvs",
				k.src, k.dst, k.tag, len(ss), len(rs))
		}
	}
	if !disrupted {
		for k, rs := range recvs {
			if _, ok := sends[k]; !ok {
				v.addf("message (src %d, dst %d, tag %d): %d recvs with no send", k.src, k.dst, k.tag, len(rs))
			}
		}
	}

	// 2. Boundary-message pairing.
	for k, ss := range waveSends {
		rs := waveRecvs[k]
		if len(ss) != 1 || len(rs) != 1 {
			if !disrupted {
				v.addf("boundary (src %d, dst %d, wave %d, seq %d): %d sends, %d recvs; want exactly 1:1",
					k.src, k.dst, k.wave, k.seq, len(ss), len(rs))
			}
			continue
		}
		if rs[0].End < ss[0].Start {
			v.addf("boundary (src %d, dst %d, wave %d, seq %d): received before sent",
				k.src, k.dst, k.wave, k.seq)
		}
	}
	if !disrupted {
		for k, rs := range waveRecvs {
			if _, ok := waveSends[k]; !ok {
				v.addf("boundary (src %d, dst %d, wave %d, seq %d): %d recvs with no send",
					k.src, k.dst, k.wave, k.seq, len(rs))
			}
		}
	}

	// 3. Wavefront safety: index boundary receives by (rank, upstream,
	// wave) and check every dependent compute span against them.
	type depKey struct{ rank, upstream, wave int }
	recvBySeq := map[depKey]map[int]Event{}
	for k, rs := range waveRecvs {
		dk := depKey{k.dst, k.src, k.wave}
		m := recvBySeq[dk]
		if m == nil {
			m = map[int]Event{}
			recvBySeq[dk] = m
		}
		for _, r := range rs {
			m[k.seq] = r
		}
	}
	sort.Slice(computes, func(i, j int) bool { return computes[i].Start < computes[j].Start })
	for _, c := range computes {
		if c.Need < 0 || c.Peer < 0 {
			continue
		}
		m := recvBySeq[depKey{c.Rank, c.Peer, c.Wave}]
		for seq := 0; seq <= c.Need; seq++ {
			r, ok := m[seq]
			if !ok {
				v.addf("rank %d tile %d (wave %d): computed without boundary message %d from upstream rank %d",
					c.Rank, c.Tile, c.Wave, seq, c.Peer)
				continue
			}
			if r.End > c.Start {
				v.addf("rank %d tile %d (wave %d): compute started at %dns before boundary message %d from rank %d completed at %dns",
					c.Rank, c.Tile, c.Wave, c.Start, seq, c.Peer, r.End)
			}
		}
	}

	// 4. Dynamic-schedule safety: a tile runs once per DAG run, and each
	// recorded dependence edge orders predecessor completion before the
	// depending tile's start. Never relaxed — a fault-disrupted run may
	// lose messages, but a tile that ran before its predecessor finished
	// is a scheduler bug regardless.
	for k, ts := range taskTiles {
		if len(ts) > 1 {
			v.addf("task tile %d (wave %d): executed %d times; want exactly once",
				k.tile, k.wave, len(ts))
		}
	}
	for _, d := range taskDeps {
		ps := taskTiles[taskKey{d.Wave, d.Seq}]
		if len(ps) == 0 {
			v.addf("task tile %d (wave %d): started with no execution record for predecessor tile %d",
				d.Tile, d.Wave, d.Seq)
			continue
		}
		for _, p := range ps {
			if p.End > d.Start {
				v.addf("task tile %d (wave %d): started at %dns before predecessor tile %d completed at %dns",
					d.Tile, d.Wave, d.Start, d.Seq, p.End)
			}
		}
	}

	return v.err()
}

// ValidateRecorder checks a recorder's trace, refusing truncated traces
// (ring wrap-around drops the oldest events, which would break pairing).
func ValidateRecorder(r *Recorder) error {
	if r == nil {
		return fmt.Errorf("trace: nothing recorded (tracing disabled)")
	}
	if n := r.Dropped(); n > 0 {
		return fmt.Errorf("trace: %d events dropped by ring wrap-around; raise the recorder capacity to validate", n)
	}
	return Validate(r.Events())
}

const maxViolations = 20

type violations struct {
	msgs  []string
	total int
}

func (v *violations) addf(format string, args ...any) {
	v.total++
	if len(v.msgs) < maxViolations {
		v.msgs = append(v.msgs, fmt.Sprintf(format, args...))
	}
}

func (v *violations) err() error {
	if v.total == 0 {
		return nil
	}
	s := strings.Join(v.msgs, "\n  ")
	if v.total > len(v.msgs) {
		s += fmt.Sprintf("\n  ... and %d more", v.total-len(v.msgs))
	}
	return fmt.Errorf("trace: schedule violates the wavefront invariant (%d violations):\n  %s", v.total, s)
}
