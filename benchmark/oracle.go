package main

// Handwritten oracles. Every timed op is verified against one of these
// straight-Go loops, never against the engine under test; the same loops,
// timed on the same data, are the ceiling the kernel layer is reported
// against (kernel.*_x_of_ceiling). They fold in exactly the expression
// trees' operand order, and every product is rounded through float64()
// before it is added or subtracted, so a Go build that fuses multiply-add
// still agrees with the engines bit for bit.

// tomcatvOracle holds the eight n×n Tomcatv arrays as row-major slices
// over [1..n, 1..n]: element (i, j) lives at (i-1)*n + (j-1).
type tomcatvOracle struct {
	n                          int
	x, y, rx, ry, aa, dd, d, r []float64
}

func newTomcatvOracle(n int) *tomcatvOracle {
	mk := func() []float64 { return make([]float64, n*n) }
	return &tomcatvOracle{n: n, x: mk(), y: mk(), rx: mk(), ry: mk(), aa: mk(), dd: mk(), d: mk(), r: mk()}
}

// arrays lists the slices under the program's array names.
func (o *tomcatvOracle) arrays() map[string][]float64 {
	return map[string][]float64{"x": o.x, "y": o.y, "rx": o.rx, "ry": o.ry,
		"aa": o.aa, "dd": o.dd, "d": o.d, "r": o.r}
}

// residual is the five-point Laplacian over the interior [2..n-1, 2..n-1].
func (o *tomcatvOracle) residual() {
	n := o.n
	for i := 2; i <= n-1; i++ {
		row := (i - 1) * n
		for j := 2; j <= n-1; j++ {
			k := row + j - 1
			o.rx[k] = (o.x[k-n] + o.x[k+n] + o.x[k-1] + o.x[k+1]) - float64(4*o.x[k])
			o.ry[k] = (o.y[k-n] + o.y[k+n] + o.y[k-1] + o.y[k+1]) - float64(4*o.y[k])
		}
	}
}

// coefficients computes the tridiagonal coefficients over the interior.
func (o *tomcatvOracle) coefficients() {
	n := o.n
	for i := 2; i <= n-1; i++ {
		row := (i - 1) * n
		for j := 2; j <= n-1; j++ {
			k := row + j - 1
			dx := o.x[k+1] - o.x[k-1]
			dy := o.y[k-n] - o.y[k+n]
			o.aa[k] = -1 - float64(0.1*float64(dx*dx))
			o.dd[k] = 4 + float64(0.1*float64(dy*dy))
		}
	}
}

// forward is the paper's Figure 2(b) scan block over [2..n-2, 2..n-1],
// north to south.
func (o *tomcatvOracle) forward() {
	n := o.n
	for i := 2; i <= n-2; i++ {
		row := (i - 1) * n
		for j := 2; j <= n-1; j++ {
			k := row + j - 1
			r := float64(o.aa[k] * o.d[k-n])
			o.r[k] = r
			o.d[k] = 1 / (o.dd[k] - float64(o.aa[k-n]*r))
			o.rx[k] = o.rx[k] - float64(o.rx[k-n]*r)
			o.ry[k] = o.ry[k] - float64(o.ry[k-n]*r)
		}
	}
}

// backward is the back-substitution scan block, south to north.
func (o *tomcatvOracle) backward() {
	n := o.n
	for i := n - 2; i >= 2; i-- {
		row := (i - 1) * n
		for j := 2; j <= n-1; j++ {
			k := row + j - 1
			o.rx[k] = float64((o.rx[k] - float64(o.aa[k]*o.rx[k+n])) * o.d[k])
			o.ry[k] = float64((o.ry[k] - float64(o.aa[k]*o.ry[k+n])) * o.d[k])
		}
	}
}

// update applies the relaxed corrections over the interior.
func (o *tomcatvOracle) update() {
	n := o.n
	for i := 2; i <= n-1; i++ {
		row := (i - 1) * n
		for j := 2; j <= n-1; j++ {
			k := row + j - 1
			o.x[k] = o.x[k] + float64(0.3*o.rx[k])
			o.y[k] = o.y[k] + float64(0.3*o.ry[k])
		}
	}
}

// iteration is one whole Tomcatv iteration in block order.
func (o *tomcatvOracle) iteration() {
	o.residual()
	o.coefficients()
	o.forward()
	o.backward()
	o.update()
}

// residualMax is max(|rx|, |ry|) over the interior, the reduction the
// session workload performs after every iteration.
func (o *tomcatvOracle) residualMax() float64 {
	n := o.n
	worst := 0.0
	for i := 2; i <= n-1; i++ {
		for j := 2; j <= n-1; j++ {
			k := (i-1)*n + j - 1
			if v := abs(o.rx[k]); v > worst {
				worst = v
			}
			if v := abs(o.ry[k]); v > worst {
				worst = v
			}
		}
	}
	return worst
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// sweepOctantOracle runs the (+,+,+) Sweep3D octant — every upwind
// neighbour at index-1 — over flux and src stored row-major over
// [0..n+1]^3: flux = (src + mu·flux@i-1 + eta·flux@j-1 + xi·flux@k-1) / sigma.
func sweepOctantOracle(n int, flux, src []float64, mu, eta, xi, sigma float64) {
	m := n + 2
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			base := (i*m + j) * m
			for k := 1; k <= n; k++ {
				p := base + k
				flux[p] = (src[p] + float64(mu*flux[p-m*m]) + float64(eta*flux[p-m]) + float64(xi*flux[p-1])) / sigma
			}
		}
	}
}
