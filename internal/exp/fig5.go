package exp

import (
	"fmt"
	"math"
	"strings"

	"wavefront/internal/machine"
	"wavefront/internal/model"
)

func init() {
	register("eq1", "Equation (1): optimal block size trends in alpha, beta, p, n", eq1Trends)
	register("fig5a", "Figure 5(a): modeled vs simulated speedup of the pipelined Tomcatv wavefront (T3E-like)", fig5a)
	register("fig5b", "Figure 5(b): Model1 vs Model2 under hypothetical worst-case alpha/beta", fig5b)
}

func eq1Trends(quick bool) *Result {
	var sb strings.Builder
	base := model.Model2(500, 20)
	n, p := 512.0, 8.0

	sb.WriteString("optimal b = sqrt(alpha*n*p / ((p*beta+n)(p-1)))  [Equation (1)]\n\n")
	var rows [][]string
	for _, alpha := range []float64{100, 500, 2000, 8000} {
		m := model.Model2(alpha, 20)
		rows = append(rows, []string{fmt.Sprintf("alpha=%g", alpha), f1(m.OptimalBlock(n, p))})
	}
	sb.WriteString("alpha grows -> b grows (startup cost amortized over larger blocks):\n")
	sb.WriteString(table(nil, rows))

	rows = nil
	for _, beta := range []float64{0, 20, 100, 400} {
		m := model.Model2(500, beta)
		rows = append(rows, []string{fmt.Sprintf("beta=%g", beta), f1(m.OptimalBlock(n, p))})
	}
	sb.WriteString("\nbeta grows -> b shrinks (per-element cost dominates startup):\n")
	sb.WriteString(table(nil, rows))

	rows = nil
	for _, pp := range []float64{2, 4, 16, 64} {
		rows = append(rows, []string{fmt.Sprintf("p=%g", pp), f1(base.OptimalBlock(n, pp))})
	}
	sb.WriteString("\np grows -> b shrinks (more processors to keep busy):\n")
	sb.WriteString(table(nil, rows))

	rows = nil
	for _, nn := range []float64{128, 512, 4096, 1 << 16} {
		r4 := base.OptimalBlock(nn, 4)
		r32 := base.OptimalBlock(nn, 32)
		rows = append(rows, []string{fmt.Sprintf("n=%g", nn), f2(r4 / r32)})
	}
	sb.WriteString("\nn grows -> b less sensitive to p (ratio of optima at p=4 vs p=32 approaches 1):\n")
	sb.WriteString(table(nil, rows))

	m1 := model.Model1(1521)
	fmt.Fprintf(&sb, "\nModel1 reduction (beta=0): b = sqrt(alpha) = sqrt(1521) = %g  [Hiranandani et al.]\n",
		m1.OptimalBlockApprox(n, p))
	return &Result{Text: sb.String()}
}

// fig5aParams are the calibrated T3E-like parameters (DESIGN.md): they
// place Model1's optimum at b=39 and Model2's at b=23, the paper's values.
var fig5aParams = struct {
	alpha, beta float64
	n, p        int
}{alpha: 1500, beta: 72, n: 250, p: 8}

func fig5a(quick bool) *Result {
	pr := fig5aParams
	if quick {
		pr.n = 120
	}
	m1 := model.Model1(pr.alpha)
	m2 := model.Model2(pr.alpha, pr.beta)
	par := machine.Params{Alpha: pr.alpha, Beta: pr.beta, ElemCost: 1}
	nF, pF := float64(pr.n), float64(pr.p)

	bs := []int{1, 2, 4, 8, 12, 16, 20, 23, 28, 32, 39, 48, 64, 96, 128, 250}
	sw := paperSweep(pr.n)
	naive, err := sw.simulate(par, pr.p, 0)
	if err != nil {
		return &Result{Err: err}
	}
	simSpeedAt := func(b int) (float64, int64) {
		res, err := sw.simulate(par, pr.p, b)
		if err != nil {
			return math.NaN(), 0
		}
		return naive.Makespan / res.Makespan, res.Messages
	}
	var rows [][]string
	bestSim, bestSimB := 0.0, 0
	for _, b := range bs {
		if b > pr.n {
			continue
		}
		simSpeed, msgs := simSpeedAt(b)
		if simSpeed > bestSim {
			bestSim, bestSimB = simSpeed, b
		}
		rows = append(rows, []string{
			fmt.Sprint(b),
			f2(m1.Speedup(nF, pF, float64(b))),
			f2(m2.Speedup(nF, pF, float64(b))),
			f2(simSpeed),
			fmt.Sprint(msgs),
		})
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Tomcatv wavefront, n=%d, p=%d, alpha=%g, beta=%g (T3E-like)\n",
		pr.n, pr.p, pr.alpha, pr.beta)
	sb.WriteString("speedup of pipelined over non-pipelined vs block size b\n\n")
	sb.WriteString(table([]string{"b", "Model1", "Model2", "simulated", "msgs"}, rows))
	b1 := m1.OptimalBlockApprox(nF, pF)
	b2 := m2.OptimalBlock(nF, pF)
	fmt.Fprintf(&sb, "\nModel1 optimal b = %.0f; Model2 optimal b = %.0f; simulated best b = %d\n",
		b1, b2, bestSimB)
	fmt.Fprintf(&sb, "paper: Model1 predicts b=39, Model2 predicts b=23, \"which is in fact better\"\n")
	sim1, _ := simSpeedAt(int(math.Round(b1)))
	sim2, _ := simSpeedAt(int(math.Round(b2)))
	fmt.Fprintf(&sb, "simulated speedup at Model1's b: %.2f; at Model2's b: %.2f\n", sim1, sim2)
	return &Result{Text: sb.String()}
}

// fig5bParams reproduce the hypothetical worst case: Model1 suggests b=20,
// Model2 knows b=3.
var fig5bParams = struct {
	alpha, beta float64
	n, p        int
}{alpha: 400, beta: 186, n: 64, p: 16}

func fig5b(quick bool) *Result {
	pr := fig5bParams
	m1 := model.Model1(pr.alpha)
	m2 := model.Model2(pr.alpha, pr.beta)
	nF, pF := float64(pr.n), float64(pr.p)

	var rows [][]string
	for _, b := range []int{1, 2, 3, 4, 6, 8, 12, 16, 20, 28, 40, 64} {
		rows = append(rows, []string{
			fmt.Sprint(b),
			f2(m1.Speedup(nF, pF, float64(b))),
			f2(m2.Speedup(nF, pF, float64(b))),
		})
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "hypothetical machine: n=%d, p=%d, alpha=%g, beta=%g\n", pr.n, pr.p, pr.alpha, pr.beta)
	sb.WriteString("(no experimental data, as in the paper: the point is the models' disagreement)\n\n")
	sb.WriteString(table([]string{"b", "Model1 speedup", "Model2 speedup"}, rows))
	b1 := math.Round(m1.OptimalBlockApprox(nF, pF))
	b2 := math.Round(m2.OptimalBlock(nF, pF))
	fmt.Fprintf(&sb, "\nModel1 suggests b = %.0f; Model2 suggests b = %.0f (paper: 20 vs 3)\n", b1, b2)
	fmt.Fprintf(&sb, "true (Model2) speedup at b=%.0f: %.2f; at b=%.0f: %.2f — \"considerably less\"\n",
		b1, m2.Speedup(nF, pF, b1), b2, m2.Speedup(nF, pF, b2))
	return &Result{Text: sb.String()}
}
