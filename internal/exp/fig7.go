package exp

import (
	"fmt"
	"strings"

	"wavefront/internal/field"
	"wavefront/internal/machine"
	"wavefront/internal/model"
	"wavefront/internal/workload"
)

func init() {
	register("fig7", "Figure 7: speedup of pipelined vs non-pipelined parallel codes", fig7)
}

// fig7Program is one benchmark's two wavefronts for the parallel
// experiment: its forward and backward blocks over its domain, whose
// messages carry what the runtime pipelines (Tomcatv forwards d, rx, ry and
// back-substitutes rx, ry; SIMPLE forwards gg, tt and back-substitutes tt).
// waveFraction is the serial-time share of the wavefront computations,
// chosen to match the whole-program ratios the paper reports (see
// EXPERIMENTS.md); the remainder of each program is fully parallel in both
// variants.
type fig7Program struct {
	name         string
	sweeps       sweep
	waveFraction float64
}

func fig7(quick bool) *Result {
	n := 512
	if quick {
		n = 128
	}
	tc, err := workload.NewTomcatv(n, field.RowMajor)
	if err != nil {
		return &Result{Err: err}
	}
	sm, err := workload.NewSimple(n, field.RowMajor)
	if err != nil {
		return &Result{Err: err}
	}
	tom, err := newSweep(tc.All, tc.ForwardBlock(), tc.BackwardBlock())
	if err != nil {
		return &Result{Err: err}
	}
	simple, err := newSweep(sm.All, sm.ForwardSweepBlock(), sm.BackwardSweepBlock())
	if err != nil {
		return &Result{Err: err}
	}
	programs := []fig7Program{{"Tomcatv", tom, 0.75}, {"SIMPLE", simple, 0.075}}
	machines := []struct {
		par machine.Params
		ps  []int
	}{
		{machine.T3ELike, []int{2, 4, 8, 16}},
		{machine.PowerChallengeLike, []int{2, 4}},
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d; two wavefront sweeps per iteration (forward elimination + back\n", n)
	sb.WriteString("substitution), each program's own blocks as the runtime schedules them;\n")
	sb.WriteString("block size from Equation (1); baseline is the fully parallel\n")
	sb.WriteString("non-pipelined code (wavefront serialized, one boundary message per\n")
	sb.WriteString("processor pair), as in the paper.\n")

	for _, mc := range machines {
		fmt.Fprintf(&sb, "\n%s (alpha=%g, beta=%g):\n", mc.par.Name, mc.par.Alpha, mc.par.Beta)
		var rows [][]string
		for _, prog := range programs {
			m := model.Model2(mc.par.Alpha, mc.par.Beta)
			for _, p := range mc.ps {
				b := m.TileWidth(n, p)
				pipe, err := prog.sweeps.simulate(mc.par, p, b)
				if err != nil {
					return &Result{Err: err}
				}
				naive, err := prog.sweeps.simulate(mc.par, p, 0)
				if err != nil {
					return &Result{Err: err}
				}
				waveSpeed := naive.Makespan / pipe.Makespan

				// Whole program: the non-wavefront work is fully parallel
				// in both variants.
				rest := pipe.Work() * (1 - prog.waveFraction) / prog.waveFraction
				wholePipe := rest/float64(p) + pipe.Makespan
				wholeNaive := rest/float64(p) + naive.Makespan
				rows = append(rows, []string{
					prog.name, fmt.Sprint(p), fmt.Sprint(b),
					f2(waveSpeed), f2(waveSpeed / float64(p)),
					f2(wholeNaive / wholePipe),
				})
			}
		}
		sb.WriteString(table(
			[]string{"program", "p", "b*", "wave speedup (grey)", "wave efficiency", "whole speedup (black)"},
			rows))
	}
	sb.WriteString("\npaper: wavefront speedups approach p in all cases; whole-program gains\n")
	sb.WriteString("up to 3x (Tomcatv) with the smallest improvements still 5-8% (SIMPLE);\n")
	sb.WriteString("parallel efficiency decreases as p grows (fixed problem size).\n")
	return &Result{Text: sb.String()}
}
