package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestModel1ReducesToHiranandani(t *testing.T) {
	// With β = 0 the approximate optimum is b = sqrt(α).
	m := Model1(1521)
	if got := m.OptimalBlockApprox(1024, 8); math.Abs(got-39) > 1e-9 {
		t.Errorf("Model1 approx optimum = %g, want 39", got)
	}
}

// TestFigure5aOptima checks the calibrated T3E-like setting: Model1 picks
// b = 39 while Model2 picks b ≈ 23, the gap reported in Figure 5(a).
func TestFigure5aOptima(t *testing.T) {
	alpha, beta := 1500.0, 72.0
	n, p := 256.0, 8.0
	m1 := Model1(alpha)
	m2 := Model2(alpha, beta)
	b1 := math.Round(m1.OptimalBlockApprox(n, p))
	b2 := math.Round(m2.OptimalBlock(n, p))
	if b1 != 39 {
		t.Errorf("Model1 b = %g, want 39", b1)
	}
	if b2 != 23 {
		t.Errorf("Model2 b = %g, want 23", b2)
	}
}

// TestFigure5bOptima checks the hypothetical worst case of Figure 5(b):
// Model1 suggests b = 20 while Model2 knows b = 3 is right.
func TestFigure5bOptima(t *testing.T) {
	alpha, beta := 400.0, 186.0
	n, p := 64.0, 16.0
	b1 := math.Round(Model1(alpha).OptimalBlockApprox(n, p))
	b2 := math.Round(Model2(alpha, beta).OptimalBlock(n, p))
	if b1 != 20 {
		t.Errorf("Model1 b = %g, want 20", b1)
	}
	if b2 != 3 {
		t.Errorf("Model2 b = %g, want 3", b2)
	}
}

func TestTCompTComm(t *testing.T) {
	m := Model2(10, 2)
	n, p, b := 100.0, 4.0, 10.0
	wantComp := 100.0*10/4*3 + 100*100/4
	if got := m.TComp(n, p, b); got != wantComp {
		t.Errorf("TComp = %g, want %g", got, wantComp)
	}
	wantComm := (10 + 2*10) * (100.0/10 + 4 - 2)
	if got := m.TComm(n, p, b); got != wantComm {
		t.Errorf("TComm = %g, want %g", got, wantComm)
	}
	if got := m.TPipe(n, p, b); got != wantComp+wantComm {
		t.Errorf("TPipe = %g", got)
	}
}

func TestNonPipeAndSerial(t *testing.T) {
	m := Model2(10, 2)
	if got := m.TSerial(100); got != 10000 {
		t.Errorf("TSerial = %g", got)
	}
	want := 10000 + 3*(10+200)
	if got := m.TNonPipe(100, 4); got != float64(want) {
		t.Errorf("TNonPipe = %g, want %d", got, want)
	}
}

// TestEquationOneTrends verifies the qualitative claims made after
// Equation (1): optimal b grows with α, shrinks with β, shrinks with p.
func TestEquationOneTrends(t *testing.T) {
	n, p := 512.0, 8.0
	base := Model2(500, 20).OptimalBlock(n, p)
	if Model2(2000, 20).OptimalBlock(n, p) <= base {
		t.Error("optimal b must grow with α")
	}
	if Model2(500, 200).OptimalBlock(n, p) >= base {
		t.Error("optimal b must shrink with β")
	}
	if Model2(500, 20).OptimalBlock(n, 32) >= base {
		t.Error("optimal b must shrink with p")
	}
	// As n grows, sensitivity to p fades: the ratio of optima at p=4 and
	// p=32 approaches 1.
	small := Model2(500, 20)
	rSmall := small.OptimalBlock(128, 4) / small.OptimalBlock(128, 32)
	rBig := small.OptimalBlock(1<<20, 4) / small.OptimalBlock(1<<20, 32)
	if !(rBig < rSmall) {
		t.Errorf("sensitivity must fall with n: ratios %g vs %g", rSmall, rBig)
	}
}

// TestClosedFormNearNumericOptimum: the exact stationarity solution must
// essentially match the exhaustive integer optimum, and the paper's
// Equation (1) — which approximates (p−2) by (p−1) — must stay within a
// modest factor of it (the approximation is visibly loose at p = 2 with a
// dominant β, which is worth documenting rather than hiding). A
// continuous optimum is scored as the better of its two neighbouring
// integers — the way any consumer would round it — because
// nearest-integer rounding near small b (e.g. 1.496 rounding to 1 when
// the optimum is 2) costs a few percent that says nothing about the
// formulas themselves.
func TestClosedFormNearNumericOptimum(t *testing.T) {
	f := func(aRaw, bRaw, nRaw, pRaw uint16) bool {
		alpha := float64(aRaw%5000) + 1
		beta := float64(bRaw % 300)
		n := float64(nRaw%1000) + 32
		p := float64(pRaw%30) + 2
		m := Model2(alpha, beta)
		clamp := func(b float64) float64 {
			b = math.Max(1, b)
			return math.Min(b, n)
		}
		tAt := func(b float64) float64 {
			lo, hi := clamp(math.Floor(b)), clamp(math.Ceil(b))
			return math.Min(m.TPipe(n, p, lo), m.TPipe(n, p, hi))
		}
		bNum := m.OptimalBlockNumeric(n, p, int(n))
		tNum := m.TPipe(n, p, float64(bNum))
		if tExact := tAt(m.OptimalBlockExact(n, p)); tExact > 1.001*tNum {
			return false
		}
		// At p = 2 the (p−2) fill term Equation (1) approximates away is
		// exactly zero, so the true optimum is b = n and the paper formula
		// overpays by up to ~18% when β dominates; elsewhere 15% holds.
		tol := 1.15
		if p == 2 {
			tol = 1.25
		}
		return tAt(m.OptimalBlock(n, p)) <= tol*tNum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOptimalBlockEdge(t *testing.T) {
	m := Model2(100, 1)
	if got := m.OptimalBlock(64, 1); got != 64 {
		t.Errorf("p=1 optimum should be the full width, got %g", got)
	}
}

// TestTileWidth: Equation (1) rounded to the nearest integer and clamped to
// [1, n].
func TestTileWidth(t *testing.T) {
	for _, c := range []struct {
		m    Model
		n, p int
		want int
	}{
		{Model2(1500, 72), 512, 4, 36}, // sqrt(1280) = 35.78
		{Model2(350, 6), 512, 4, 21},   // sqrt(445.8) = 21.11
		{Model1(0), 64, 4, 1},
		{Model1(1e9), 16, 2, 16},
		{Model2(100, 1), 64, 1, 64},
	} {
		if got := c.m.TileWidth(c.n, c.p); got != c.want {
			t.Errorf("%v.TileWidth(%d, %d) = %d (Eq (1) %g), want %d",
				c.m, c.n, c.p, got, c.m.OptimalBlock(float64(c.n), float64(c.p)), c.want)
		}
	}
}

func TestFitAlphaBeta(t *testing.T) {
	alpha, beta := 120.0, 3.5
	cost := func(n int) float64 { return alpha + beta*float64(n) }
	a, b, err := FitAlphaBeta(8, cost(8), 512, cost(512))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-alpha) > 1e-9 || math.Abs(b-beta) > 1e-9 {
		t.Errorf("fit = (%g,%g), want (%g,%g)", a, b, alpha, beta)
	}
	if _, _, err := FitAlphaBeta(8, 1, 8, 2); err == nil {
		t.Error("equal sizes must fail")
	}
}

func TestModelString(t *testing.T) {
	if got := Model2(1, 2).String(); got != "model(α=1, β=2)" {
		t.Errorf("String() = %q", got)
	}
}
