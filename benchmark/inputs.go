package main

import (
	"fmt"
	"math"
	"math/rand"

	"wavefront"
	"wavefront/internal/field"
	"wavefront/internal/workload"
)

// Inputs are generated here from the seed; the program under test receives
// only the arrays. Every workload primes finite values in set-up, snapshots
// them, and restores the snapshot before each op or chunk outside the timed
// interval, so in-place sweeps never drift and an engine that did nothing
// cannot pass verification.

// jitter scales v by a seeded factor in [1-1e-3, 1+1e-3].
func jitter(rng *rand.Rand, v float64) float64 {
	return v * (1 + 1e-3*(2*rng.Float64()-1))
}

// newTomcatv builds an n×n Tomcatv problem whose initial mesh is perturbed
// by the seed and whose solver inputs are finite: a fresh instance has
// aa = dd = d = 0, so the forward block would time 1/0 and 0·Inf. The
// priming (residual, coefficients, d = 1) is done by the handwritten
// oracle, not by the engine under test. The returned oracle holds the same
// primed state.
func newTomcatv(n int, seed int64) (*workload.Tomcatv, *tomcatvOracle, error) {
	t, err := workload.NewTomcatv(n, field.RowMajor)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	o := newTomcatvOracle(n)
	copy(o.x, t.Env.Arrays["x"].Data())
	copy(o.y, t.Env.Arrays["y"].Data())
	for k := range o.x {
		o.x[k] = jitter(rng, o.x[k])
		o.y[k] = jitter(rng, o.y[k])
	}
	o.residual()
	o.coefficients()
	for k := range o.d {
		o.d[k] = 1
	}
	for name, data := range o.arrays() {
		f := t.Env.Arrays[name]
		if f.Len() != len(data) || f.Stride(1) != 1 {
			return nil, nil, fmt.Errorf("inputs: tomcatv array %q is not a row-major %d×%d box", name, n, n)
		}
		copy(f.Data(), data)
	}
	return t, o, nil
}

// newSweep builds an n^3 Sweep3D problem with a seed-perturbed source term.
func newSweep(n int, seed int64) (*workload.Sweep, error) {
	s, err := workload.NewSweep(n, 3, field.RowMajor)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	src := s.Env.Arrays["src"].Data()
	for k := range src {
		src[k] = jitter(rng, src[k])
	}
	return s, nil
}

// snapshot is a saved copy of a set of arrays.
type snapshot struct {
	fields []*wavefront.Array
	saved  [][]float64
}

// takeSnapshot copies the named arrays of env.
func takeSnapshot(env *wavefront.Env, names ...string) *snapshot {
	s := &snapshot{}
	for _, name := range names {
		f := env.Arrays[name]
		s.fields = append(s.fields, f)
		s.saved = append(s.saved, append([]float64(nil), f.Data()...))
	}
	return s
}

// restore writes the saved values back; it allocates nothing.
func (s *snapshot) restore() {
	for i, f := range s.fields {
		copy(f.Data(), s.saved[i])
	}
}

// smallestNormal is the least positive normal float64.
const smallestNormal = 0x1p-1022

// assertFinite fails when data holds a NaN, an Inf or a denormal: timing
// such values measures the FPU's slow paths, not the kernel.
func assertFinite(what string, data []float64) error {
	for k, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) || (v != 0 && math.Abs(v) < smallestNormal) {
			return fmt.Errorf("inputs: %s[%d] = %g is not a finite normal number", what, k, v)
		}
	}
	return nil
}

// firstMismatch compares bit for bit and returns the first differing index,
// or -1 when the slices are identical.
func firstMismatch(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for k := range got {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			return k
		}
	}
	return -1
}

// expectation is one output array and the bits it must hold after an op.
type expectation struct {
	name string
	got  *wavefront.Array
	want []float64
}

// check verifies every expectation bit for bit.
func check(exps []expectation) error {
	for _, e := range exps {
		if k := firstMismatch(e.got.Data(), e.want); k >= 0 {
			return fmt.Errorf("verify: %s[%d] = %x, oracle says %x", e.name, k,
				math.Float64bits(e.got.Data()[k]), math.Float64bits(e.want[k]))
		}
	}
	return nil
}
