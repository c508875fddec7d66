package expr

import (
	"math"
	"testing"
)

// TestMinMaxMatchTheBranchForm holds the branchless Minf/Maxf — the one
// select the closures and internal/kernel's tape both run — to the
// comparison-and-branch form they replaced, bit for bit, over every pair of
// the values where the two could differ: signed zeros (equal, so b wins),
// NaN (unordered, so b wins — from either side), infinities and ordinary
// numbers of both signs.
func TestMinMaxMatchTheBranchForm(t *testing.T) {
	ifMin := func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	}
	ifMax := func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	}
	negZero := math.Copysign(0, -1)
	vals := []float64{0, negZero, 1, -1, math.Inf(1), math.Inf(-1), math.NaN(), 2.5}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := Minf(a, b), ifMin(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("Minf(%v, %v) = %v (%#x), branch form gives %v (%#x)",
					a, b, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if got, want := Maxf(a, b), ifMax(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("Maxf(%v, %v) = %v (%#x), branch form gives %v (%#x)",
					a, b, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
