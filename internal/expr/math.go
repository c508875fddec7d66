package expr

import "math"

// Thin wrappers keep the compiled closures free of package-qualified call
// syntax in hot paths and give a single seam for future fast approximations.

func sqrt(x float64) float64   { return math.Sqrt(x) }
func abs(x float64) float64    { return math.Abs(x) }
func exp(x float64) float64    { return math.Exp(x) }
func logf(x float64) float64   { return math.Log(x) }
func pow(x, y float64) float64 { return math.Pow(x, y) }

// minf and maxf are the two-way selects a < b ? a : b and a > b ? a : b,
// NaN and signed zeros included (an unordered or equal comparison yields
// b), written without a branch: the comparison becomes a 0/1 mask and the
// result is chosen bitwise. On operands whose order the predictor cannot
// learn (|rx| against |ry|) the branch mispredicts every other element and
// costs 2.5x what the select does; on ordered operands the two cost the
// same. internal/kernel and internal/expr carry the same formula: both
// engines must produce the same bits.
func minf(a, b float64) float64 {
	var m uint64
	if a < b {
		m = 1
	}
	ab, bb := math.Float64bits(a), math.Float64bits(b)
	return math.Float64frombits(bb ^ (ab^bb)&-m)
}

func maxf(a, b float64) float64 {
	var m uint64
	if a > b {
		m = 1
	}
	ab, bb := math.Float64bits(a), math.Float64bits(b)
	return math.Float64frombits(bb ^ (ab^bb)&-m)
}
