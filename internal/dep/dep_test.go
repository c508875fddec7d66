package dep

import (
	"errors"
	"math/rand"
	"testing"

	"wavefront/internal/grid"
)

func udv(kind Kind, dist ...int) UDV {
	return UDV{Dist: grid.Direction(dist), Kind: kind}
}

// TestFigure3 checks the two loop nests of the paper's Figure 3: the
// unprimed statement a := 2*a@north carries an anti-dependence and iterates
// i from high to low; the primed statement a := 2*a'@north carries a true
// dependence and iterates i from low to high.
func TestFigure3(t *testing.T) {
	north := grid.Direction{-1, 0}

	anti := FromUnprimed(make(grid.Direction, len(north)), north, false, "a", 0)
	spec, err := Derive(2, []UDV{anti})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Dirs[0] != grid.HighToLow {
		t.Errorf("unprimed @north: dim0 %v, want high->low", spec.Dirs[0])
	}

	prime := FromPrimed(make(grid.Direction, len(north)), north, "a", 0)
	if !prime.Dist.Equal(grid.Direction{1, 0}) {
		t.Errorf("primed UDV = %v, want (1,0)", prime.Dist)
	}
	spec, err = Derive(2, []UDV{prime})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Dirs[0] != grid.LowToHigh {
		t.Errorf("primed @north: dim0 %v, want low->high", spec.Dirs[0])
	}
}

// TestPaperExamples covers the four legality examples of §2.2 at the
// dependence level (primed references, so distances are negated
// directions).
func TestPaperExamples(t *testing.T) {
	primed := func(dirs ...grid.Direction) []UDV {
		var out []UDV
		for _, d := range dirs {
			out = append(out, FromPrimed(make(grid.Direction, len(d)), d, "a", 0))
		}
		return out
	}

	// Example 1: d1=d2=(-1,0). Legal; wavefront along dim 0.
	spec, err := Derive(2, primed(grid.Direction{-1, 0}, grid.Direction{-1, 0}))
	if err != nil {
		t.Fatalf("example 1: %v", err)
	}
	if spec.Dirs[0] != grid.LowToHigh {
		t.Errorf("example 1: dim0 %v", spec.Dirs[0])
	}

	// Example 2: d1=(-1,0), d2=(0,-1). Legal.
	if _, err := Derive(2, primed(grid.Direction{-1, 0}, grid.Direction{0, -1})); err != nil {
		t.Fatalf("example 2: %v", err)
	}

	// Example 3: d1=(-1,0), d2=(1,1). Legal despite the non-simple WSV.
	spec, err = Derive(2, primed(grid.Direction{-1, 0}, grid.Direction{1, 1}))
	if err != nil {
		t.Fatalf("example 3: %v", err)
	}
	if !spec.Satisfies(primed(grid.Direction{-1, 0}, grid.Direction{1, 1})) {
		t.Error("example 3: derived spec does not satisfy its own UDVs")
	}

	// Example 4: d1=(0,-1), d2=(0,1). Over-constrained.
	_, err = Derive(2, primed(grid.Direction{0, -1}, grid.Direction{0, 1}))
	var oc *OverconstrainedError
	if !errors.As(err, &oc) {
		t.Fatalf("example 4: err = %v, want OverconstrainedError", err)
	}
}

// TestExample3Structure pins down the loop structure of example 3: the
// second dimension must be outermost (it is the wavefront dimension) since
// dimension 0 alone cannot order both dependences.
func TestExample3Structure(t *testing.T) {
	udvs := []UDV{
		FromPrimed(make(grid.Direction, 2), grid.Direction{-1, 0}, "a", 0), // dist (1,0)
		FromPrimed(make(grid.Direction, 2), grid.Direction{1, 1}, "a", 0),  // dist (-1,-1)
	}
	spec, err := Derive(2, udvs)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Perm[0] != 1 {
		t.Errorf("outer dim = %d, want 1", spec.Perm[0])
	}
	if spec.Dirs[1] != grid.HighToLow {
		t.Errorf("dim1 dir = %v, want high->low", spec.Dirs[1])
	}
	if spec.Dirs[0] != grid.LowToHigh {
		t.Errorf("dim0 dir = %v, want low->high", spec.Dirs[0])
	}
}

func TestAntiPairNeedsTemp(t *testing.T) {
	// a := a@north + a@south in place: contradictory anti-dependences.
	udvs := []UDV{
		FromUnprimed(make(grid.Direction, 2), grid.Direction{-1, 0}, false, "a", 0),
		FromUnprimed(make(grid.Direction, 2), grid.Direction{1, 0}, false, "a", 0),
	}
	if _, err := Derive(2, udvs); err == nil {
		t.Fatal("opposite anti-dependences must be over-constrained")
	}
}

func TestHiddenOverconstraint(t *testing.T) {
	// WSV would be (-,±) which has a minus entry, yet no loop nest exists:
	// the per-dimension summary loses the pairing. The dep algorithm must
	// still reject it.
	udvs := []UDV{
		FromPrimed(make(grid.Direction, 2), grid.Direction{-1, 0}, "a", 0), // (1,0)
		FromPrimed(make(grid.Direction, 2), grid.Direction{0, -1}, "a", 0), // (0,1)
		FromPrimed(make(grid.Direction, 2), grid.Direction{0, 1}, "a", 0),  // (0,-1)
	}
	if _, err := Derive(2, udvs); err == nil {
		t.Fatal("expected over-constraint")
	}
}

func TestZeroDistanceUnconstrained(t *testing.T) {
	spec, err := Derive(2, []UDV{udv(True, 0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Perm[0] != 0 || spec.Dirs[0] != grid.LowToHigh || spec.Dirs[1] != grid.LowToHigh {
		t.Errorf("zero-distance must yield identity nest, got %v", spec)
	}
}

func TestIdentityPreference(t *testing.T) {
	// With no constraints the identity nest is chosen.
	spec, err := Derive(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range spec.Perm {
		if d != i {
			t.Errorf("perm[%d] = %d", i, d)
		}
		if spec.Dirs[i] != grid.LowToHigh {
			t.Errorf("dirs[%d] = %v", i, spec.Dirs[i])
		}
	}
}

func TestDimOrderPreference(t *testing.T) {
	// An unconstrained derivation with DimOrder [1,0] puts dim 1 outermost,
	// i.e. dim 0 innermost — the column-major cache preference.
	spec, err := DerivePreferred(2, nil, Preference{DimOrder: []int{1, 0}, PreferLow: true})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Perm[0] != 1 || spec.Perm[1] != 0 {
		t.Errorf("perm = %v, want [1 0]", spec.Perm)
	}
}

func TestRankMismatchRejected(t *testing.T) {
	if _, err := Derive(2, []UDV{udv(True, 1)}); err == nil {
		t.Error("rank mismatch must fail")
	}
}

// TestDeriveSoundRandom: whenever Derive succeeds, the returned spec must
// satisfy every UDV; whenever it fails, brute force over all permutations
// and directions must also fail (completeness for small ranks).
func TestDeriveSoundRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		rank := 1 + rng.Intn(3)
		nu := rng.Intn(4)
		var udvs []UDV
		for i := 0; i < nu; i++ {
			dist := make(grid.Direction, rank)
			for d := range dist {
				dist[d] = rng.Intn(5) - 2
			}
			udvs = append(udvs, UDV{Dist: dist, Kind: True})
		}
		spec, err := Derive(rank, udvs)
		if err == nil {
			if !spec.Satisfies(udvs) {
				t.Fatalf("trial %d: spec %v does not satisfy %v", trial, spec, udvs)
			}
			continue
		}
		if found, bf := bruteForce(rank, udvs); found {
			t.Fatalf("trial %d: Derive failed but %v satisfies %v", trial, bf, udvs)
		}
	}
}

// bruteForce searches all dimension permutations and direction assignments.
func bruteForce(rank int, udvs []UDV) (bool, LoopSpec) {
	perms := permutations(rank)
	for _, perm := range perms {
		for mask := 0; mask < 1<<rank; mask++ {
			spec := LoopSpec{Perm: perm, Dirs: make([]grid.LoopDir, rank)}
			for d := 0; d < rank; d++ {
				if mask&(1<<d) != 0 {
					spec.Dirs[d] = grid.HighToLow
				}
			}
			if spec.Satisfies(udvs) {
				return true, spec
			}
		}
	}
	return false, LoopSpec{}
}

func permutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	for _, sub := range permutations(n - 1) {
		for pos := 0; pos <= len(sub); pos++ {
			p := make([]int, 0, n)
			p = append(p, sub[:pos]...)
			p = append(p, n-1)
			p = append(p, sub[pos:]...)
			out = append(out, p)
		}
	}
	return out
}
