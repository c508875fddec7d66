package exp

import (
	"fmt"
	"strings"

	"wavefront/internal/machine"
)

func init() {
	register("fig4", "Figure 4: naive vs pipelined data movement and parallelism", fig4)
}

// fig4 renders the paper's Figure 4 contrast as processor timelines: with
// naive communication each processor waits for its predecessor's whole
// portion; with pipelining the downstream processors start after a single
// block. '#' is compute, '%' is message receive overhead, '.' is idle.
func fig4(quick bool) *Result {
	n, p, b := 64, 4, 8
	par := machine.Params{Alpha: 8, Beta: 0.25, ElemCost: 1}

	sw := paperSweep(n)
	build := func(block int) (machine.Timeline, error) {
		dag, err := sw.schedule(p, block)
		if err != nil {
			return machine.Timeline{}, err
		}
		return par.SimulateTimeline(dag), nil
	}

	naive, err := build(0)
	if err != nil {
		return &Result{Err: err}
	}
	pipe, err := build(b)
	if err != nil {
		return &Result{Err: err}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%dx%d wavefront on %d processors (alpha=%g, beta=%g)\n\n", n, n, p, par.Alpha, par.Beta)
	fmt.Fprintf(&sb, "(a) naive communication: the wavefront serializes the processors\n\n")
	sb.WriteString(naive.Gantt(64))
	fmt.Fprintf(&sb, "\n(b) pipelined, block width %d: downstream processors start after one block\n\n", b)
	sb.WriteString(pipe.Gantt(64))
	fmt.Fprintf(&sb, "\nmakespan %.0f -> %.0f (%.2fx); utilization %.0f%% -> %.0f%%\n",
		naive.Result.Makespan, pipe.Result.Makespan,
		naive.Result.Makespan/pipe.Result.Makespan,
		100*naive.Result.Utilization(), 100*pipe.Result.Utilization())
	return &Result{Text: sb.String()}
}
