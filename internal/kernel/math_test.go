package kernel

import (
	"math"
	"testing"
)

// TestMinMaxMatchTheBranchForm holds the tape's min/max run bodies (vmin,
// vmax, vminImm, vmaxImm, which select with expr.Minf/Maxf) to the
// comparison-and-branch form, bit for bit, over every pair of the values
// where the two could differ: signed zeros (equal, so b wins), NaN
// (unordered, so b wins — from either side), infinities and ordinary numbers
// of both signs. Every pair runs through both the four-wide unrolled body
// and the scalar tail.
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
	var as, bs []float64
	for _, a := range vals {
		for _, b := range vals {
			as, bs = append(as, a), append(bs, b)
		}
	}
	check := func(name string, got []float64, a, b []float64, want func(a, b float64) float64) {
		t.Helper()
		for e := range got {
			if w := want(a[e], b[e]); math.Float64bits(got[e]) != math.Float64bits(w) {
				t.Errorf("%s(%v, %v) = %v (%#x), branch form gives %v (%#x)",
					name, a[e], b[e], got[e], math.Float64bits(got[e]), w, math.Float64bits(w))
			}
		}
	}
	dst := make([]float64, len(as))
	unrolled := len(as) - len(as)%4
	vmin(dst[:unrolled], as, bs)
	check("vmin", dst[:unrolled], as, bs, ifMin)
	vmax(dst[:unrolled], as, bs)
	check("vmax", dst[:unrolled], as, bs, ifMax)
	for e := range as {
		vmin(dst[e:e+1], as[e:], bs[e:])
		check("vmin tail", dst[e:e+1], as[e:], bs[e:], ifMin)
		vmax(dst[e:e+1], as[e:], bs[e:])
		check("vmax tail", dst[e:e+1], as[e:], bs[e:], ifMax)
	}
	imms := make([]float64, len(vals))
	for _, imm := range vals {
		for e := range imms {
			imms[e] = imm
		}
		// len(vals) is 8: two unrolled iterations; the one-element calls
		// below take the tail.
		vminImm(dst[:len(vals)], vals, imm)
		check("vminImm", dst[:len(vals)], vals, imms, ifMin)
		vmaxImm(dst[:len(vals)], vals, imm)
		check("vmaxImm", dst[:len(vals)], vals, imms, ifMax)
		for e := range vals {
			vminImm(dst[:1], vals[e:], imm)
			check("vminImm tail", dst[:1], vals[e:], imms, ifMin)
			vmaxImm(dst[:1], vals[e:], imm)
			check("vmaxImm tail", dst[:1], vals[e:], imms, ifMax)
		}
	}
}
