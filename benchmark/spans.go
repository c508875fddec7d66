package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"wavefront"
)

// The driver's own span recorder for the traced pass. Spans are recorded
// from this directory only, around the calls into each layer; the program's
// existing trace events are imported as children of the op that produced
// them. Everything stays in memory until the run ends.

// span is one interval: a layer call, an op, or an imported program event.
type span struct {
	Name   string
	Start  int64 // ns since the recorder's epoch
	End    int64
	ID     int
	Parent int // span ID, -1 for a root
	Op     int // op the span belongs to
	Track  int // 0 = the driver's caller thread, 1+r = the program's rank/worker ring r
}

type spanRecorder struct {
	epoch time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

func (r *spanRecorder) now() int64 { return time.Since(r.epoch).Nanoseconds() }

// begin opens a span on the driver's track and returns its ID.
func (r *spanRecorder) begin(name string, parent, op int) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: r.now(), End: -1, ID: id, Parent: parent, Op: op})
	return id
}

func (r *spanRecorder) end(id int) { r.spans[id].End = r.now() }

// importEvents re-parents the program's recorded events under span parent.
// origin is the span clock's reading at the trace recorder's epoch. Within
// one ring an event that lies inside another (a recv inside a wave-recv)
// becomes its child, so self time is not counted twice.
func (r *spanRecorder) importEvents(events []wavefront.TraceEvent, origin int64, parent, op int) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End > b.End
	})
	var open []int // enclosing spans on the current ring, innermost last
	ring := -1
	for _, ev := range events {
		if ev.Rank != ring {
			ring, open = ev.Rank, open[:0]
		}
		s := span{Name: ev.Kind.String(), Start: origin + ev.Start, End: origin + ev.End,
			ID: len(r.spans), Parent: parent, Op: op, Track: 1 + ev.Rank}
		for len(open) > 0 && r.spans[open[len(open)-1]].End < s.End {
			open = open[:len(open)-1]
		}
		if len(open) > 0 {
			s.Parent = open[len(open)-1]
		}
		r.spans = append(r.spans, s)
		if s.End > s.Start {
			open = append(open, s.ID)
		}
	}
}

// selfStat is one row of the self-time table.
type selfStat struct {
	Name  string
	Count int
	Total time.Duration // Σ span durations
	Self  time.Duration // Σ (duration − the part child spans cover)
}

// selfTimes computes, per span name, the total and self time. A span's
// self time is its duration minus the union of its children's intervals
// clipped to it: children on different ranks overlap in time, and covered
// time must not be subtracted twice.
func (r *spanRecorder) selfTimes() []selfStat {
	children := make(map[int][]int)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	byName := map[string]*selfStat{}
	for _, s := range r.spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfStat{Name: s.Name}
			byName[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.Total += time.Duration(dur)
		st.Self += time.Duration(dur - r.covered(s, children[s.ID]))
	}
	out := make([]selfStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of the union of the kids' intervals inside s.
func (r *spanRecorder) covered(s span, kids []int) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := r.spans[k].Start, r.spans[k].End
		if lo < s.Start {
			lo = s.Start
		}
		if hi > s.End {
			hi = s.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, reach int64
	reach = s.Start
	for _, v := range ivs {
		if v.lo > reach {
			reach = v.lo
		}
		if v.hi > reach {
			total += v.hi - reach
			reach = v.hi
		}
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON (loadable in
// chrome://tracing and Perfetto): one complete ("X") event per span, the
// driver on tid 0 and the program's rings on tid 1+ring; args carry the
// span, parent and op identifiers.
func (r *spanRecorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"` // µs
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		events = append(events, event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: s.Track,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op}})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printSelfTimes(workload string, rows []selfStat) {
	fmt.Printf("# %s self-time table (span, count, total, self)\n", workload)
	for _, st := range rows {
		fmt.Printf("# %-16s %8d %14v %14v\n", st.Name, st.Count, st.Total, st.Self)
	}
}
