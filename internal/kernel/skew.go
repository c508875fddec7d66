package kernel

import (
	"wavefront/internal/dep"
	"wavefront/internal/grid"
)

// The skewed executor: when the innermost dimension carries a dependence
// (no span is legal) but the two innermost loop levels admit a hyperplane
// t = Ca*ia + Cb*ib with every in-plane dependence distance strictly
// positive under it (dep.DeriveSkew), the plane executes wave by wave and
// each wave is one unit-stride-in-iteration-space diagonal run of the fused
// tape.
//
// Addressing. Iteration coordinates (x, y) count from each dimension's
// direction start; a field's flat offset at (x, y) is
//
//	base + x*stepA + y*stepB
//
// where stepA/stepB are the direction-signed element strides. With coprime
// (Ca, Cb) the points of wave w form a single arithmetic progression
// stepping (x, y) by (Cb, -Ca), so the per-element flat step is the
// constant Cb*stepA - Ca*stepB and the fused tape's run executor applies
// unchanged. x ranges over the congruence class x ≡ w·Ca⁻¹ (mod Cb)
// clipped to [max(0, ceil((w - Cb·(Nb-1))/Ca)), min(Na-1, floor(w/Ca))].
//
// Legality. Every UDV with a nonzero component outside the plane is carried
// by an outer loop (the derived nest satisfies it, and outer levels still
// execute in exactly the derived order). Every in-plane UDV has positive
// dot product with (Ca, Cb), so its source lies on a strictly earlier wave,
// executed before this run starts; a dependence between two points of one
// run would need dot product zero, which the strict inequality excludes.
// The runs therefore execute an order-legal permutation of the same
// per-point arithmetic as the point walk and the closure engine — bit-identical
// results, the same argument that makes the task-DAG schedule exact.

// skewCache memoizes the hyperplane derivation for one loop spec. A kernel
// runs every tile with the same derived loop, so after the first Run the
// skew (or the proof that none exists) is a slice-compare away.
type skewCache struct {
	loop dep.LoopSpec
	sk   dep.Skew
	ok   bool
}

// skewFor derives (and caches) the hyperplane for loop.
func (pr *Program) skewFor(loop dep.LoopSpec) (dep.Skew, bool) {
	if c := pr.skc; c != nil && loopEqual(c.loop, loop) {
		return c.sk, c.ok
	}
	c := &skewCache{loop: dep.LoopSpec{
		Perm: append([]int(nil), loop.Perm...),
		Dirs: append([]grid.LoopDir(nil), loop.Dirs...),
	}}
	if sk, err := dep.DeriveSkew(pr.rank, pr.udvs, loop); err == nil {
		c.sk, c.ok = sk, true
	}
	pr.skc = c
	return c.sk, c.ok
}

func loopEqual(a, b dep.LoopSpec) bool {
	if len(a.Perm) != len(b.Perm) || len(a.Dirs) != len(b.Dirs) {
		return false
	}
	for i := range a.Perm {
		if a.Perm[i] != b.Perm[i] {
			return false
		}
	}
	for i := range a.Dirs {
		if a.Dirs[i] != b.Dirs[i] {
			return false
		}
	}
	return true
}

// skewRunnable gates the skewed executor on unit region strides along the
// plane dimensions: UDV distances are in element units, so on a strided
// region the iteration-space distances would need rescaling — the point
// walk handles that (rare) case instead.
func skewRunnable(region grid.Region, sk dep.Skew) bool {
	return region.Dim(sk.A).Stride == 1 && region.Dim(sk.B).Stride == 1
}

// beginWaves readies the registers and the per-field steps for hyperplane
// waves of an na × nb plane: stepA/stepB walk the plane's two iteration
// axes, steps walks one diagonal run. The odometer steps levels 0..rank-3
// exactly as it does for the other orders; its leaf is execWaves.
func (pr *Program) beginWaves(loop dep.LoopSpec, sk dep.Skew, na, nb int) {
	maxRun := (na + sk.Cb - 1) / sk.Cb
	if m := (nb + sk.Ca - 1) / sk.Ca; m < maxRun {
		maxRun = m
	}
	pr.ensureRegs(maxRun)
	pr.setUnitRun(false) // a diagonal steps by a row and a column at once
	stridesA, stridesB := pr.along(pr.strides, sk.A), pr.along(pr.strides, sk.B)
	for fi := range pr.fields {
		sa := stridesA[fi]
		if loop.Dirs[sk.A] == grid.HighToLow {
			sa = -sa
		}
		sb := stridesB[fi]
		if loop.Dirs[sk.B] == grid.HighToLow {
			sb = -sb
		}
		pr.stepA[fi], pr.stepB[fi] = sa, sb
		pr.steps[fi] = sk.Cb*sa - sk.Ca*sb
	}
}

// execWaves sweeps one (A, B) plane wave by wave. base holds each field's
// flat offset of the plane's iteration origin (both dimensions at their
// direction start); wave w's run starts at iteration (xlo, y0) and its
// per-element flat steps were precomputed by beginWaves.
func (pr *Program) execWaves(na, nb, ca, cb int) {
	// Ca⁻¹ mod Cb selects the congruence class of x on each wave; the
	// coefficients are coprime and tiny, so a linear scan finds it.
	inv := 0
	if cb > 1 {
		for i := 1; i < cb; i++ {
			if ca*i%cb == 1 {
				inv = i
				break
			}
		}
	}
	wmax := ca*(na-1) + cb*(nb-1)
	for w := 0; w <= wmax; w++ {
		xhi := w / ca
		if xhi > na-1 {
			xhi = na - 1
		}
		xlo := 0
		if t := w - cb*(nb-1); t > 0 {
			xlo = (t + ca - 1) / ca
		}
		if cb > 1 {
			r := w % cb * inv % cb
			if d := (r - xlo%cb + cb) % cb; d > 0 {
				xlo += d
			}
		}
		if xlo > xhi {
			continue
		}
		m := (xhi-xlo)/cb + 1
		y0 := (w - ca*xlo) / cb
		for fi := range pr.rbase {
			pr.rbase[fi] = pr.base[fi] + xlo*pr.stepA[fi] + y0*pr.stepB[fi]
		}
		pr.execRun(pr.rbase, m)
	}
}
