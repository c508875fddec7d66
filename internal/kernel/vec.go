package kernel

import "wavefront/internal/expr"

// Register-blocked run bodies: every helper unrolls by four with the four
// partial results held in locals, so the compiler keeps them in machine
// registers and schedules the independent element operations together; the
// up-front re-slices hoist the bounds checks out of the loops. The
// element-wise arithmetic is exactly the scalar expression per element — no
// reassociation, no single-rounding multiply-add — so blocking cannot perturb
// bit-identity with the closure engine. A destination may alias an operand
// (the register compactor reuses operand registers): each group reads all
// its inputs before writing, and groups are disjoint, so aliasing is safe.

func vfill(dst []float64, imm float64) {
	e := 0
	for ; e+4 <= len(dst); e += 4 {
		dst[e], dst[e+1], dst[e+2], dst[e+3] = imm, imm, imm, imm
	}
	for ; e < len(dst); e++ {
		dst[e] = imm
	}
}

func vgather(dst, src []float64, b, step int) {
	n := len(dst)
	e := 0
	for ; e+4 <= n; e += 4 {
		i := b + e*step
		d0, d1, d2, d3 := src[i], src[i+step], src[i+2*step], src[i+3*step]
		dst[e], dst[e+1], dst[e+2], dst[e+3] = d0, d1, d2, d3
	}
	for ; e < n; e++ {
		dst[e] = src[b+e*step]
	}
}

func vscatter(dst, src []float64, b, step int) {
	n := len(src)
	e := 0
	for ; e+4 <= n; e += 4 {
		i := b + e*step
		s0, s1, s2, s3 := src[e], src[e+1], src[e+2], src[e+3]
		dst[i], dst[i+step], dst[i+2*step], dst[i+3*step] = s0, s1, s2, s3
	}
	for ; e < n; e++ {
		dst[b+e*step] = src[e]
	}
}

func vadd(dst, a, b []float64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	e := 0
	for ; e+4 <= n; e += 4 {
		d0, d1 := a[e]+b[e], a[e+1]+b[e+1]
		d2, d3 := a[e+2]+b[e+2], a[e+3]+b[e+3]
		dst[e], dst[e+1], dst[e+2], dst[e+3] = d0, d1, d2, d3
	}
	for ; e < n; e++ {
		dst[e] = a[e] + b[e]
	}
}

func vsub(dst, a, b []float64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	e := 0
	for ; e+4 <= n; e += 4 {
		d0, d1 := a[e]-b[e], a[e+1]-b[e+1]
		d2, d3 := a[e+2]-b[e+2], a[e+3]-b[e+3]
		dst[e], dst[e+1], dst[e+2], dst[e+3] = d0, d1, d2, d3
	}
	for ; e < n; e++ {
		dst[e] = a[e] - b[e]
	}
}

func vmul(dst, a, b []float64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	e := 0
	for ; e+4 <= n; e += 4 {
		d0, d1 := a[e]*b[e], a[e+1]*b[e+1]
		d2, d3 := a[e+2]*b[e+2], a[e+3]*b[e+3]
		dst[e], dst[e+1], dst[e+2], dst[e+3] = d0, d1, d2, d3
	}
	for ; e < n; e++ {
		dst[e] = a[e] * b[e]
	}
}

func vdiv(dst, a, b []float64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	e := 0
	for ; e+4 <= n; e += 4 {
		d0, d1 := a[e]/b[e], a[e+1]/b[e+1]
		d2, d3 := a[e+2]/b[e+2], a[e+3]/b[e+3]
		dst[e], dst[e+1], dst[e+2], dst[e+3] = d0, d1, d2, d3
	}
	for ; e < n; e++ {
		dst[e] = a[e] / b[e]
	}
}

func vaddImm(dst, a []float64, imm float64) {
	n := len(dst)
	a = a[:n]
	e := 0
	for ; e+4 <= n; e += 4 {
		d0, d1, d2, d3 := a[e]+imm, a[e+1]+imm, a[e+2]+imm, a[e+3]+imm
		dst[e], dst[e+1], dst[e+2], dst[e+3] = d0, d1, d2, d3
	}
	for ; e < n; e++ {
		dst[e] = a[e] + imm
	}
}

func vsubImmR(dst, a []float64, imm float64) {
	n := len(dst)
	a = a[:n]
	e := 0
	for ; e+4 <= n; e += 4 {
		d0, d1, d2, d3 := a[e]-imm, a[e+1]-imm, a[e+2]-imm, a[e+3]-imm
		dst[e], dst[e+1], dst[e+2], dst[e+3] = d0, d1, d2, d3
	}
	for ; e < n; e++ {
		dst[e] = a[e] - imm
	}
}

func vsubImmL(dst, a []float64, imm float64) {
	n := len(dst)
	a = a[:n]
	e := 0
	for ; e+4 <= n; e += 4 {
		d0, d1, d2, d3 := imm-a[e], imm-a[e+1], imm-a[e+2], imm-a[e+3]
		dst[e], dst[e+1], dst[e+2], dst[e+3] = d0, d1, d2, d3
	}
	for ; e < n; e++ {
		dst[e] = imm - a[e]
	}
}

func vmulImm(dst, a []float64, imm float64) {
	n := len(dst)
	a = a[:n]
	e := 0
	for ; e+4 <= n; e += 4 {
		d0, d1, d2, d3 := a[e]*imm, a[e+1]*imm, a[e+2]*imm, a[e+3]*imm
		dst[e], dst[e+1], dst[e+2], dst[e+3] = d0, d1, d2, d3
	}
	for ; e < n; e++ {
		dst[e] = a[e] * imm
	}
}

func vdivImmR(dst, a []float64, imm float64) {
	n := len(dst)
	a = a[:n]
	e := 0
	for ; e+4 <= n; e += 4 {
		d0, d1, d2, d3 := a[e]/imm, a[e+1]/imm, a[e+2]/imm, a[e+3]/imm
		dst[e], dst[e+1], dst[e+2], dst[e+3] = d0, d1, d2, d3
	}
	for ; e < n; e++ {
		dst[e] = a[e] / imm
	}
}

func vdivImmL(dst, a []float64, imm float64) {
	n := len(dst)
	a = a[:n]
	e := 0
	for ; e+4 <= n; e += 4 {
		d0, d1, d2, d3 := imm/a[e], imm/a[e+1], imm/a[e+2], imm/a[e+3]
		dst[e], dst[e+1], dst[e+2], dst[e+3] = d0, d1, d2, d3
	}
	for ; e < n; e++ {
		dst[e] = imm / a[e]
	}
}

func vneg(dst, a []float64) {
	n := len(dst)
	a = a[:n]
	e := 0
	for ; e+4 <= n; e += 4 {
		d0, d1, d2, d3 := -a[e], -a[e+1], -a[e+2], -a[e+3]
		dst[e], dst[e+1], dst[e+2], dst[e+3] = d0, d1, d2, d3
	}
	for ; e < n; e++ {
		dst[e] = -a[e]
	}
}

func vmin(dst, a, b []float64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	e := 0
	for ; e+4 <= n; e += 4 {
		d0, d1 := expr.Minf(a[e], b[e]), expr.Minf(a[e+1], b[e+1])
		d2, d3 := expr.Minf(a[e+2], b[e+2]), expr.Minf(a[e+3], b[e+3])
		dst[e], dst[e+1], dst[e+2], dst[e+3] = d0, d1, d2, d3
	}
	for ; e < n; e++ {
		dst[e] = expr.Minf(a[e], b[e])
	}
}

func vmax(dst, a, b []float64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	e := 0
	for ; e+4 <= n; e += 4 {
		d0, d1 := expr.Maxf(a[e], b[e]), expr.Maxf(a[e+1], b[e+1])
		d2, d3 := expr.Maxf(a[e+2], b[e+2]), expr.Maxf(a[e+3], b[e+3])
		dst[e], dst[e+1], dst[e+2], dst[e+3] = d0, d1, d2, d3
	}
	for ; e < n; e++ {
		dst[e] = expr.Maxf(a[e], b[e])
	}
}

func vminImm(dst, a []float64, imm float64) {
	n := len(dst)
	a = a[:n]
	e := 0
	for ; e+4 <= n; e += 4 {
		d0, d1 := expr.Minf(a[e], imm), expr.Minf(a[e+1], imm)
		d2, d3 := expr.Minf(a[e+2], imm), expr.Minf(a[e+3], imm)
		dst[e], dst[e+1], dst[e+2], dst[e+3] = d0, d1, d2, d3
	}
	for ; e < n; e++ {
		dst[e] = expr.Minf(a[e], imm)
	}
}

func vmaxImm(dst, a []float64, imm float64) {
	n := len(dst)
	a = a[:n]
	e := 0
	for ; e+4 <= n; e += 4 {
		d0, d1 := expr.Maxf(a[e], imm), expr.Maxf(a[e+1], imm)
		d2, d3 := expr.Maxf(a[e+2], imm), expr.Maxf(a[e+3], imm)
		dst[e], dst[e+1], dst[e+2], dst[e+3] = d0, d1, d2, d3
	}
	for ; e < n; e++ {
		dst[e] = expr.Maxf(a[e], imm)
	}
}

// The multiply-then-add bodies. Each product is rounded to float64 before
// the sum is — the explicit conversion is what the language gives for that:
// without it a compiler may contract x*y ± z into one fma with a single
// rounding (arm64, ppc64le, riscv64 and s390x builds do), and the result
// would differ from the opMul/opAdd pair the instruction replaces in the
// last bit. TestNoContractedMultiplyAdd reads the arm64 assembly to see that
// none is.

func vsubMul(dst, a, b, c []float64) {
	n := len(dst)
	a, b, c = a[:n], b[:n], c[:n]
	e := 0
	for ; e+4 <= n; e += 4 {
		d0, d1 := a[e]-float64(b[e]*c[e]), a[e+1]-float64(b[e+1]*c[e+1])
		d2, d3 := a[e+2]-float64(b[e+2]*c[e+2]), a[e+3]-float64(b[e+3]*c[e+3])
		dst[e], dst[e+1], dst[e+2], dst[e+3] = d0, d1, d2, d3
	}
	for ; e < n; e++ {
		dst[e] = a[e] - float64(b[e]*c[e])
	}
}

func vmulSub(dst, a, b, c []float64) {
	n := len(dst)
	a, b, c = a[:n], b[:n], c[:n]
	e := 0
	for ; e+4 <= n; e += 4 {
		d0, d1 := float64(b[e]*c[e])-a[e], float64(b[e+1]*c[e+1])-a[e+1]
		d2, d3 := float64(b[e+2]*c[e+2])-a[e+2], float64(b[e+3]*c[e+3])-a[e+3]
		dst[e], dst[e+1], dst[e+2], dst[e+3] = d0, d1, d2, d3
	}
	for ; e < n; e++ {
		dst[e] = float64(b[e]*c[e]) - a[e]
	}
}

func vaddMul(dst, a, b, c []float64) {
	n := len(dst)
	a, b, c = a[:n], b[:n], c[:n]
	e := 0
	for ; e+4 <= n; e += 4 {
		d0, d1 := a[e]+float64(b[e]*c[e]), a[e+1]+float64(b[e+1]*c[e+1])
		d2, d3 := a[e+2]+float64(b[e+2]*c[e+2]), a[e+3]+float64(b[e+3]*c[e+3])
		dst[e], dst[e+1], dst[e+2], dst[e+3] = d0, d1, d2, d3
	}
	for ; e < n; e++ {
		dst[e] = a[e] + float64(b[e]*c[e])
	}
}

func vsubMulImm(dst, a, b []float64, imm float64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	e := 0
	for ; e+4 <= n; e += 4 {
		d0, d1 := a[e]-float64(b[e]*imm), a[e+1]-float64(b[e+1]*imm)
		d2, d3 := a[e+2]-float64(b[e+2]*imm), a[e+3]-float64(b[e+3]*imm)
		dst[e], dst[e+1], dst[e+2], dst[e+3] = d0, d1, d2, d3
	}
	for ; e < n; e++ {
		dst[e] = a[e] - float64(b[e]*imm)
	}
}

func vmulImmSub(dst, a, b []float64, imm float64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	e := 0
	for ; e+4 <= n; e += 4 {
		d0, d1 := float64(b[e]*imm)-a[e], float64(b[e+1]*imm)-a[e+1]
		d2, d3 := float64(b[e+2]*imm)-a[e+2], float64(b[e+3]*imm)-a[e+3]
		dst[e], dst[e+1], dst[e+2], dst[e+3] = d0, d1, d2, d3
	}
	for ; e < n; e++ {
		dst[e] = float64(b[e]*imm) - a[e]
	}
}

func vaddMulImm(dst, a, b []float64, imm float64) {
	n := len(dst)
	a, b = a[:n], b[:n]
	e := 0
	for ; e+4 <= n; e += 4 {
		d0, d1 := a[e]+float64(b[e]*imm), a[e+1]+float64(b[e+1]*imm)
		d2, d3 := a[e+2]+float64(b[e+2]*imm), a[e+3]+float64(b[e+3]*imm)
		dst[e], dst[e+1], dst[e+2], dst[e+3] = d0, d1, d2, d3
	}
	for ; e < n; e++ {
		dst[e] = a[e] + float64(b[e]*imm)
	}
}
