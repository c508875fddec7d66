// Package dep implements array-level dependence analysis for scan blocks:
// unconstrained distance vectors (UDVs) and the algorithm that derives a
// legal loop structure (a dimension permutation plus a per-dimension
// iteration direction) or reports the block as over-constrained.
//
// Unconstrained distance vectors (Lewis, Lin, Snyder, PLDI'98) characterize
// dependences by dimensions of the *array* rather than of an iteration
// space, because in an array language the loop nest does not exist until
// after the analysis runs. A UDV is "unconstrained" in that it does not
// presuppose a loop order; the derivation below chooses the order.
//
// The prime operator transforms what an array language would otherwise
// interpret as an anti-dependence into a true dependence; its UDV is the
// negated shift direction. Non-primed shifted references to arrays written
// in the block contribute anti-dependences (the shift direction itself) when
// the writer is the same or a later statement, and true dependences (the
// negated direction) when the writer is an earlier statement, since the
// reader must then observe the earlier statement's completed values.
package dep

import (
	"fmt"
	"strings"

	"wavefront/internal/grid"
)

// Kind classifies a dependence.
type Kind int8

const (
	// True (flow) dependence: the read must observe the write.
	True Kind = iota
	// Anti dependence: the read must precede the overwrite.
	Anti
	// Output dependence: two writes to the same element.
	Output
)

func (k Kind) String() string {
	switch k {
	case True:
		return "true"
	case Anti:
		return "anti"
	case Output:
		return "output"
	}
	return fmt.Sprintf("Kind(%d)", int8(k))
}

// UDV is an unconstrained distance vector: for the loop nest to be legal,
// the iteration at offset Dist from the current one must execute first, i.e.
// Dist must be lexicographically positive (or all-zero) under the chosen
// dimension order and iteration directions.
type UDV struct {
	Dist grid.Direction
	Kind Kind
	// Array and Stmt identify the provenance for diagnostics; Stmt is the
	// index of the reading (or second-writing) statement in its block.
	Array string
	Stmt  int
}

func (u UDV) String() string {
	return fmt.Sprintf("%s dep %v on %q (stmt %d)", u.Kind, u.Dist, u.Array, u.Stmt)
}

// Zero reports whether the distance is the zero vector. Zero-distance
// dependences are satisfied by statement order within a single iteration and
// impose no loop constraint.
func (u UDV) Zero() bool { return grid.Direction(u.Dist).Zero() }

// FromPrimed returns the true-dependence UDV induced by a primed reference
// A'@d: the negation of d. The distance is written into dist, which must be
// as long as d, so a caller deriving many UDVs can carve their distances
// from one allocation.
func FromPrimed(dist, d grid.Direction, array string, stmt int) UDV {
	for i, c := range d {
		dist[i] = -c
	}
	return UDV{Dist: dist, Kind: True, Array: array, Stmt: stmt}
}

// FromUnprimed returns the UDV induced by a non-primed shifted reference
// A@d to an array written in the block. writerEarlier indicates whether the
// (nearest) writing statement lexically precedes the reading statement. The
// distance is written into dist, as FromPrimed writes it.
func FromUnprimed(dist, d grid.Direction, writerEarlier bool, array string, stmt int) UDV {
	if writerEarlier {
		return FromPrimed(dist, d, array, stmt)
	}
	copy(dist, d)
	return UDV{Dist: dist, Kind: Anti, Array: array, Stmt: stmt}
}

// LoopSpec describes a loop nest over the dimensions of a data space:
// Perm[0] is the dimension of the outermost loop, and Dirs[k] is the
// iteration direction of the loop over dimension k (indexed by dimension,
// not by nest level).
type LoopSpec struct {
	Perm []int
	Dirs []grid.LoopDir
}

// Identity returns the canonical loop nest: dimension 0 outermost, all loops
// running low to high.
func Identity(rank int) LoopSpec {
	s := LoopSpec{Perm: make([]int, rank), Dirs: make([]grid.LoopDir, rank)}
	for i := range s.Perm {
		s.Perm[i] = i
	}
	return s
}

func (s LoopSpec) String() string {
	parts := make([]string, len(s.Perm))
	for lvl, d := range s.Perm {
		parts[lvl] = fmt.Sprintf("dim%d %s", d, s.Dirs[d])
	}
	return strings.Join(parts, " > ")
}

// Satisfies reports whether every non-zero UDV is lexicographically positive
// under the spec: scanning dimensions outermost-first, the first nonzero
// component (after flipping HighToLow dimensions) must be positive.
func (s LoopSpec) Satisfies(udvs []UDV) bool {
	for _, u := range udvs {
		if !s.satisfiesOne(u) {
			return false
		}
	}
	return true
}

func (s LoopSpec) satisfiesOne(u UDV) bool {
	for _, dim := range s.Perm {
		c := u.Dist[dim]
		if s.Dirs[dim] == grid.HighToLow {
			c = -c
		}
		if c > 0 {
			return true
		}
		if c < 0 {
			return false
		}
	}
	return true // all-zero distance: satisfied by statement order
}

// OverconstrainedError reports that no loop nest can respect the block's
// dependences, carrying a witness UDV that could not be satisfied.
type OverconstrainedError struct {
	Witness UDV
}

func (e *OverconstrainedError) Error() string {
	return fmt.Sprintf("dep: scan block is over-constrained: no loop nest satisfies %s", e.Witness)
}

// Preference biases Derive's search. DimOrder lists dimensions from most to
// least preferred for the outer loop positions; nil means 0, 1, 2, ....
// PreferLow, when true (the default via Derive), tries low-to-high before
// high-to-low for each dimension.
type Preference struct {
	DimOrder  []int
	PreferLow bool
}

// Derive finds a loop structure satisfying the UDVs, preferring the identity
// nest (dimension 0 outermost, all loops low to high) and deviating only as
// the dependences require. It returns an *OverconstrainedError if no loop
// nest exists.
func Derive(rank int, udvs []UDV) (LoopSpec, error) {
	return DerivePreferred(rank, udvs, Preference{PreferLow: true})
}

// DerivePreferred is Derive with an explicit search bias. It allocates the
// loop spec it returns and nothing else: the search reads which UDVs are
// still unsatisfied off the dimensions placed so far (unsatisfied).
func DerivePreferred(rank int, udvs []UDV, pref Preference) (LoopSpec, error) {
	for _, u := range udvs {
		if len(u.Dist) != rank {
			return LoopSpec{}, fmt.Errorf("dep: UDV %v has rank %d, want %d", u, len(u.Dist), rank)
		}
	}
	dims := dimOrder{pref.DimOrder, rank}
	spec := LoopSpec{Perm: make([]int, 0, rank), Dirs: make([]grid.LoopDir, rank)}
	if derive(dims, udvs, &spec, pref.PreferLow) {
		return spec, nil
	}
	// Over-constrained: find a witness for the error message. Some UDV has a
	// dimension-wise conflict with another; report the first UDV that no
	// single-dimension choice can make lexicographically positive together
	// with the rest. For diagnostics the first non-zero UDV suffices when no
	// better witness is found. (A zero UDV constrains nothing and clashes
	// with nothing.)
	var witness UDV
	found := false
	for _, u := range udvs {
		if u.Zero() {
			continue
		}
		if !found {
			witness, found = u, true
		}
		if conflictsEverywhere(u, udvs) {
			witness = u
			break
		}
	}
	return LoopSpec{}, &OverconstrainedError{Witness: witness}
}

// dimOrder is a Preference's dimension order: the DimOrder given, or
// 0, 1, ..., rank-1 for a nil one.
type dimOrder struct {
	order []int
	rank  int
}

func (o dimOrder) len() int {
	if o.order == nil {
		return o.rank
	}
	return len(o.order)
}

func (o dimOrder) at(i int) int {
	if o.order == nil {
		return i
	}
	return o.order[i]
}

// derive recursively chooses the next-outermost dimension. A dimension k
// with direction s is feasible if every still-unsatisfied UDV has component
// >= 0 in k after flipping (so none is made lexicographically negative);
// UDVs with component > 0 become satisfied.
func derive(dims dimOrder, udvs []UDV, spec *LoopSpec, preferLow bool) bool {
	if !anyUnsatisfied(udvs, spec) {
		// Fill the remaining dimensions in preference order, low-to-high.
		for i := 0; i < dims.len(); i++ {
			if k := dims.at(i); !spec.placed(k) {
				spec.Perm = append(spec.Perm, k)
				spec.Dirs[k] = grid.LowToHigh
			}
		}
		return true
	}
	if len(spec.Perm) == dims.len() {
		return false
	}
	dirs := [2]grid.LoopDir{grid.LowToHigh, grid.HighToLow}
	if !preferLow {
		dirs[0], dirs[1] = dirs[1], dirs[0]
	}
	for i := 0; i < dims.len(); i++ {
		k := dims.at(i)
		if spec.placed(k) {
			continue
		}
		for _, dir := range dirs {
			if !feasible(udvs, spec, k, dir) {
				continue
			}
			spec.Perm = append(spec.Perm, k)
			spec.Dirs[k] = dir
			if derive(dims, udvs, spec, preferLow) {
				return true
			}
			spec.Perm = spec.Perm[:len(spec.Perm)-1]
		}
	}
	return false
}

// placed reports whether the partial spec has a loop over dimension k.
func (s *LoopSpec) placed(k int) bool {
	for _, p := range s.Perm {
		if p == k {
			return true
		}
	}
	return false
}

// unsatisfied reports whether u still constrains the partial spec's inner
// levels: it is non-zero, and every dimension placed so far leaves it at
// zero. (A placed dimension with a non-zero component satisfied it — a
// negative one would have made the placement infeasible.)
func unsatisfied(u UDV, spec *LoopSpec) bool {
	for _, k := range spec.Perm {
		if u.Dist[k] != 0 {
			return false
		}
	}
	return !u.Zero()
}

func anyUnsatisfied(udvs []UDV, spec *LoopSpec) bool {
	for _, u := range udvs {
		if unsatisfied(u, spec) {
			return true
		}
	}
	return false
}

// feasible reports whether placing dimension k with direction dir next
// leaves no unsatisfied UDV lexicographically negative.
func feasible(udvs []UDV, spec *LoopSpec, k int, dir grid.LoopDir) bool {
	for _, u := range udvs {
		c := u.Dist[k]
		if dir == grid.HighToLow {
			c = -c
		}
		if c < 0 && unsatisfied(u, spec) {
			return false
		}
	}
	return true
}

// conflictsEverywhere reports whether u, for every dimension and direction
// that would satisfy it, is contradicted by some other UDV in that same
// dimension. It is a heuristic witness detector for error messages only.
func conflictsEverywhere(u UDV, all []UDV) bool {
	for k, c := range u.Dist {
		if c == 0 {
			continue
		}
		clash := false
		for _, v := range all {
			if v.Dist[k]*c < 0 {
				clash = true
				break
			}
		}
		if !clash {
			return false
		}
	}
	return true
}
