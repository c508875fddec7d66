package expr

import "math"

// Minf and Maxf are the two-way selects a < b ? a : b and a > b ? a : b,
// NaN and signed zeros included (an unordered or equal comparison yields
// b), written without a branch: the comparison becomes a 0/1 mask and the
// result is chosen bitwise. On operands whose order the predictor cannot
// learn (|rx| against |ry|) the branch mispredicts every other element and
// costs 2.5x what the select does; on ordered operands the two cost the
// same. They are the one min/max both engines run — the compiled closures
// here and internal/kernel's tape — so the two produce the same bits.
func Minf(a, b float64) float64 {
	var m uint64
	if a < b {
		m = 1
	}
	ab, bb := math.Float64bits(a), math.Float64bits(b)
	return math.Float64frombits(bb ^ (ab^bb)&-m)
}

func Maxf(a, b float64) float64 {
	var m uint64
	if a > b {
		m = 1
	}
	ab, bb := math.Float64bits(a), math.Float64bits(b)
	return math.Float64frombits(bb ^ (ab^bb)&-m)
}
