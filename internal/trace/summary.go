package trace

import (
	"bytes"
	"fmt"
	"sort"
	"text/tabwriter"
	"time"
)

// RankSummary is one rank's time breakdown.
type RankSummary struct {
	Rank int
	// Busy is time spent computing (tile spans, or fused kernel runs when
	// the rank recorded no tile spans).
	Busy time.Duration
	// Comm is time moving data: sends, the non-blocked part of receives,
	// and the scatter/gather copies.
	Comm time.Duration
	// Wait is time blocked: the waiting part of receives plus barrier
	// waits.
	Wait time.Duration
	// Events and Dropped count this rank's retained and lost events.
	Events  int
	Dropped int64
	// Faults counts injected faults that fired on this rank; Cancels counts
	// operations aborted by topology cancellation.
	Faults  int
	Cancels int
	// FirstComputeStart and LastComputeEnd bound the rank's compute
	// activity in ns since the epoch; -1 when the rank never computed.
	FirstComputeStart, LastComputeEnd int64
}

// Summary is the whole-run view the paper's §4 model talks about: per-rank
// busy/wait/comm, the pipeline fill and drain intervals, and how much of
// the computation actually overlapped across ranks.
type Summary struct {
	Procs int
	// Wall is the span from the first to the last recorded timestamp.
	Wall time.Duration
	// Fill is the pipeline fill time: how long after the first rank starts
	// computing until the last rank starts. Under the §4 model this is
	// (p-1) tiles of compute plus message latency.
	Fill time.Duration
	// Drain is the pipeline drain time: how long after the first rank
	// finishes its last tile until the last rank finishes.
	Drain time.Duration
	// Overlap is the fraction of compute-active wall time during which at
	// least two ranks were computing simultaneously (0 when at most one
	// rank ever computes, approaching (p-1)/p for a full pipeline).
	Overlap float64
	// Utilization is total busy time over procs × wall.
	Utilization float64
	Ranks       []RankSummary
}

// Summarize derives the metrics from the recorded events. Call only after
// the traced run has completed.
func (r *Recorder) Summarize() *Summary {
	if r == nil {
		return nil
	}
	s := &Summary{Procs: r.Procs()}
	env := NewEnvelope()
	var computes []span
	var busyTotal time.Duration
	for rank := 0; rank < r.Procs(); rank++ {
		events := r.RankEvents(rank)
		c := NewRingClass()
		for i := range events {
			c.Add(&events[i])
		}
		c.Close()
		env.Add(&c)
		for i := range events {
			if ev := &events[i]; c.IsCompute(ev.Kind) {
				computes = append(computes, span{ev.Start, ev.End})
			}
		}
		busyTotal += c.Busy
		s.Ranks = append(s.Ranks, RankSummary{
			Rank: rank, Busy: c.Busy, Comm: c.Comm, Wait: c.Wait,
			Events: len(events), Dropped: r.ranks[rank].dropped,
			Faults: c.Faults, Cancels: c.Cancels,
			FirstComputeStart: c.FirstCompute, LastComputeEnd: c.LastCompute,
		})
	}
	s.Wall, s.Fill, s.Drain = env.Wall(), env.Fill(), env.Drain()
	if s.Wall > 0 && s.Procs > 0 {
		s.Utilization = float64(busyTotal) / (float64(s.Wall) * float64(s.Procs))
	}
	s.Overlap = overlapFraction(computesToIntervals(computes))
	return s
}

type span struct{ start, end int64 }

type boundary struct {
	t     int64
	delta int
}

func computesToIntervals(spans []span) []boundary {
	bs := make([]boundary, 0, 2*len(spans))
	for _, sp := range spans {
		if sp.end <= sp.start {
			continue
		}
		bs = append(bs, boundary{sp.start, +1}, boundary{sp.end, -1})
	}
	sort.Slice(bs, func(i, j int) bool {
		if bs[i].t != bs[j].t {
			return bs[i].t < bs[j].t
		}
		return bs[i].delta < bs[j].delta // close before open at the same instant
	})
	return bs
}

// overlapFraction sweeps the compute spans and returns the share of
// compute-active time with at least two ranks active.
func overlapFraction(bs []boundary) float64 {
	var active, overlapped int64
	depth := 0
	var prev int64
	for _, b := range bs {
		if depth >= 1 {
			active += b.t - prev
		}
		if depth >= 2 {
			overlapped += b.t - prev
		}
		depth += b.delta
		prev = b.t
	}
	if active == 0 {
		return 0
	}
	return float64(overlapped) / float64(active)
}

// String renders the summary as an aligned table.
func (s *Summary) String() string {
	if s == nil {
		return "<no trace>"
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "wall %v  fill %v  drain %v  overlap %.1f%%  utilization %.1f%%\n",
		s.Wall.Round(time.Microsecond), s.Fill.Round(time.Microsecond),
		s.Drain.Round(time.Microsecond), 100*s.Overlap, 100*s.Utilization)
	w := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "rank\tbusy\tcomm\twait\tevents")
	for _, rs := range s.Ranks {
		fmt.Fprintf(w, "%d\t%v\t%v\t%v\t%d\n",
			rs.Rank, rs.Busy.Round(time.Microsecond), rs.Comm.Round(time.Microsecond),
			rs.Wait.Round(time.Microsecond), rs.Events)
	}
	w.Flush()
	return buf.String()
}
