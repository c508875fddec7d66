package machine

import (
	"fmt"
	"strings"
)

// Timeline records per-task scheduling for visualization: Figure 4 of the
// paper contrasts the naive schedule (each processor computes its whole
// portion before forwarding its boundary) with the pipelined schedule
// (processors overlap after one block); SimulateTimeline captures the
// same contrast as data.
type Timeline struct {
	Result Result
	Spans  []Span
}

// Span is one task's execution interval.
type Span struct {
	Proc          int
	Start, Finish float64
	// Recv is the portion of the interval spent receiving messages.
	Recv float64
}

// SimulateTimeline is Simulate plus span recording.
func (p Params) SimulateTimeline(d *DAG) Timeline {
	spans := make([]Span, 0, len(d.Tasks))
	res := p.simulate(d, &spans)
	return Timeline{Result: res, Spans: spans}
}

// Gantt renders the timeline as one text row per processor, width columns
// wide: '#' marks compute, '%' marks message receive overhead, '.' marks
// idle time.
func (tl Timeline) Gantt(width int) string {
	if width < 10 {
		width = 10
	}
	procs := len(tl.Result.ProcFinish)
	span := tl.Result.Makespan
	if span <= 0 {
		return ""
	}
	rows := make([][]byte, procs)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	colOf := func(t float64) int {
		c := int(t / span * float64(width))
		if c >= width {
			c = width - 1
		}
		if c < 0 {
			c = 0
		}
		return c
	}
	for _, s := range tl.Spans {
		recvEnd := colOf(s.Start + s.Recv)
		for c := colOf(s.Start); c <= colOf(s.Finish)-1 || c == colOf(s.Start); c++ {
			ch := byte('#')
			if c <= recvEnd && s.Recv > 0 {
				ch = '%'
			}
			rows[s.Proc][c] = ch
		}
	}
	var sb strings.Builder
	for i, row := range rows {
		fmt.Fprintf(&sb, "P%-2d |%s|\n", i+1, string(row))
	}
	fmt.Fprintf(&sb, "     0%st=%.0f\n", strings.Repeat(" ", width-len(fmt.Sprintf("t=%.0f", span))), span)
	return sb.String()
}
