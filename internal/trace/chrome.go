package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry of the Chrome trace-event format ("X" complete
// events plus "M" metadata), as understood by chrome://tracing and
// Perfetto. Timestamps and durations are microseconds; fractional values
// preserve nanosecond resolution.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome writes the trace as Chrome trace-event JSON: one process,
// one thread per rank, every event a complete ("X") span named by its kind
// with the schedule identity (peer, tag, tile, seq, ...) in args.
func (r *Recorder) WriteChrome(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("trace: cannot export a nil recorder")
	}
	ct := chromeTrace{DisplayTimeUnit: "ns"}
	for rank := 0; rank < r.Procs(); rank++ {
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: rank,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", rank)},
		})
	}
	if total := r.Dropped(); total > 0 {
		// Mark lossy exports so a viewer (or a script reading the JSON)
		// knows the timeline has ring-wrap holes and which rings lost them.
		args := map[string]any{"total": total}
		for rank := 0; rank < r.Procs(); rank++ {
			if d := r.RankDropped(rank); d > 0 {
				args[fmt.Sprintf("ring_%d", rank)] = d
			}
		}
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: "trace_dropped_events", Ph: "M", Pid: 0, Tid: 0, Args: args,
		})
	}
	for _, ev := range r.Events() {
		ce := chromeEvent{
			Name: ev.Kind.String(),
			Cat:  category(ev.Kind),
			Ph:   "X",
			Ts:   float64(ev.Start) / 1e3,
			Dur:  float64(ev.End-ev.Start) / 1e3,
			Pid:  0,
			Tid:  ev.Rank,
			Args: map[string]any{},
		}
		if ev.Peer >= 0 {
			ce.Args["peer"] = ev.Peer
		}
		switch ev.Kind {
		case KindSend, KindRecv:
			ce.Args["tag"] = ev.Tag
			ce.Args["elems"] = ev.Elems
			if ev.Kind == KindRecv {
				ce.Args["blocked_ns"] = ev.Blocked
			}
		case KindWaveSend, KindWaveRecv:
			ce.Args["seq"] = ev.Seq
			ce.Args["wave"] = ev.Wave
			ce.Args["elems"] = ev.Elems
		case KindCompute:
			ce.Args["tile"] = ev.Tile
			ce.Args["elems"] = ev.Elems
			if ev.Wave >= 0 {
				ce.Args["wave"] = ev.Wave
			}
			if ev.Need >= 0 {
				ce.Args["needs_upto_seq"] = ev.Need
			}
		case KindKernel:
			ce.Args["elems"] = ev.Elems
		case KindExchange:
			// peer is the lowest neighbour that took part, peer_hi the
			// highest: equal for a refresh that moved rows one way only.
			if ev.Seq >= 0 {
				ce.Args["peer_hi"] = ev.Seq
			}
			ce.Args["elems"] = ev.Elems
		case KindBlockedSend:
			ce.Args["tag"] = ev.Tag
			ce.Args["blocked_ns"] = ev.Blocked
		case KindFault:
			ce.Args["tag"] = ev.Tag
			ce.Args["action_code"] = ev.Seq
		case KindCancel:
			ce.Args["tag"] = ev.Tag
		case KindTaskTile:
			ce.Args["tile"] = ev.Tile
			ce.Args["wave"] = ev.Wave
			ce.Args["elems"] = ev.Elems
		case KindTaskDep:
			ce.Args["tile"] = ev.Tile
			ce.Args["wave"] = ev.Wave
			ce.Args["pred"] = ev.Seq
		}
		if len(ce.Args) == 0 {
			ce.Args = nil
		}
		ct.TraceEvents = append(ct.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(ct)
}

// category groups kinds into Chrome categories so the viewer can filter
// compute vs communication vs runtime phases.
func category(k Kind) string {
	switch k {
	case KindCompute, KindKernel, KindTaskTile:
		return "compute"
	case KindSend, KindRecv, KindWaveSend, KindWaveRecv, KindBlockedSend:
		return "comm"
	case KindFault, KindCancel:
		return "fault"
	default:
		return "phase"
	}
}
