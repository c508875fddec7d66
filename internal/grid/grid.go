// Package grid provides the index-space vocabulary of the wavefront system:
// points, directions, and regions.
//
// A Region is the ZPL notion of a rectangular index set: an ordered list of
// per-dimension ranges, each with a low bound, a high bound, and a positive
// stride. Regions "cover" array statements, factoring the participating
// indices out of the statement text. Directions are small integer offset
// vectors used by the shift operator (@) and, with the prime operator, to
// orient wavefronts.
//
// All types in this package are immutable values; operations return new
// values and never mutate their receivers.
package grid

import (
	"errors"
	"fmt"
	"strings"
)

// Point is an index in a rank-d space. The zero-length Point is the (only)
// point of the rank-0 space.
type Point []int

// Direction is an offset vector, as declared by ZPL's "direction" keyword.
type Direction []int

// Range is one dimension of a region: the integer sequence
// lo, lo+stride, ..., not exceeding hi. Stride must be >= 1.
type Range struct {
	Lo, Hi int
	Stride int
}

// Region is a rectangular index set: the cross product of its ranges.
// A Region with no ranges has rank 0 and contains exactly one (empty) point.
type Region struct {
	dims []Range
}

// Common errors returned by the constructors in this package.
var (
	ErrBadStride = errors.New("grid: stride must be >= 1")
	ErrRankZero  = errors.New("grid: rank must be >= 1")
	ErrRankMix   = errors.New("grid: mismatched ranks")
)

// NewRange returns the range [lo..hi] with stride 1.
func NewRange(lo, hi int) Range { return Range{Lo: lo, Hi: hi, Stride: 1} }

// Size reports the number of indices in the range; empty ranges have size 0.
func (r Range) Size() int {
	if r.Hi < r.Lo {
		return 0
	}
	return (r.Hi-r.Lo)/r.Stride + 1
}

// Empty reports whether the range holds no indices.
func (r Range) Empty() bool { return r.Size() == 0 }

// Contains reports whether i is one of the range's indices.
func (r Range) Contains(i int) bool {
	return i >= r.Lo && i <= r.Hi && (i-r.Lo)%r.Stride == 0
}

// Shift returns the range translated by delta.
func (r Range) Shift(delta int) Range {
	return Range{Lo: r.Lo + delta, Hi: r.Hi + delta, Stride: r.Stride}
}

// Intersect returns the overlap of two ranges with equal strides.
// Ranges with different strides cannot be intersected by this method and
// yield an error.
func (r Range) Intersect(s Range) (Range, error) {
	if r.Stride != s.Stride {
		return Range{}, fmt.Errorf("grid: intersecting ranges with strides %d and %d", r.Stride, s.Stride)
	}
	lo := max(r.Lo, s.Lo)
	hi := min(r.Hi, s.Hi)
	if r.Stride > 1 && (lo-r.Lo)%r.Stride != 0 {
		// Align lo upward to r's lattice. The caller guarantees the two
		// lattices agree when strides agree and the los are congruent;
		// otherwise the intersection may be empty.
		if (s.Lo-r.Lo)%r.Stride != 0 {
			return Range{Lo: 0, Hi: -1, Stride: r.Stride}, nil
		}
		lo += r.Stride - (lo-r.Lo)%r.Stride
	}
	return Range{Lo: lo, Hi: hi, Stride: r.Stride}, nil
}

func (r Range) String() string {
	if r.Stride == 1 {
		return fmt.Sprintf("%d..%d", r.Lo, r.Hi)
	}
	return fmt.Sprintf("%d..%d by %d", r.Lo, r.Hi, r.Stride)
}

// NewRegion builds a region from per-dimension ranges. Every stride must be
// positive.
func NewRegion(dims ...Range) (Region, error) {
	for _, d := range dims {
		if d.Stride < 1 {
			return Region{}, ErrBadStride
		}
	}
	cp := make([]Range, len(dims))
	copy(cp, dims)
	return Region{dims: cp}, nil
}

// RegionOver returns the region of dims, keeping the slice instead of
// copying it: the caller must not change dims while the region is in use.
// Strides are not checked — it is for ranges cut from a valid region.
func RegionOver(dims []Range) Region { return Region{dims: dims} }

// MustRegion is NewRegion for statically known-good arguments; it panics on
// error and is intended for tests, examples, and package-level tables.
func MustRegion(dims ...Range) Region {
	r, err := NewRegion(dims...)
	if err != nil {
		panic(err)
	}
	return r
}

// Square returns the stride-1 region [lo..hi, lo..hi] of the given rank.
func Square(rank, lo, hi int) Region {
	dims := make([]Range, rank)
	for i := range dims {
		dims[i] = NewRange(lo, hi)
	}
	return Region{dims: dims}
}

// Rank reports the number of dimensions.
func (g Region) Rank() int { return len(g.dims) }

// Dim returns the range of dimension d (0-based).
func (g Region) Dim(d int) Range { return g.dims[d] }

// Dims returns a copy of all ranges.
func (g Region) Dims() []Range {
	cp := make([]Range, len(g.dims))
	copy(cp, g.dims)
	return cp
}

// Size reports the number of points in the region.
func (g Region) Size() int {
	n := 1
	for _, d := range g.dims {
		n *= d.Size()
	}
	return n
}

// Empty reports whether the region holds no points.
func (g Region) Empty() bool {
	for _, d := range g.dims {
		if d.Empty() {
			return true
		}
	}
	return g.Rank() > 0 && g.Size() == 0
}

// Contains reports whether p lies in the region. Points of the wrong rank are
// never contained.
func (g Region) Contains(p Point) bool {
	if len(p) != len(g.dims) {
		return false
	}
	for i, d := range g.dims {
		if !d.Contains(p[i]) {
			return false
		}
	}
	return true
}

// ContainsRegion reports whether every point of h lies in g.
func (g Region) ContainsRegion(h Region) bool {
	if g.Rank() != h.Rank() {
		return false
	}
	if h.Empty() {
		return true
	}
	for i, d := range g.dims {
		hd := h.dims[i]
		if !d.Contains(hd.Lo) {
			return false
		}
		// The last element of hd:
		last := hd.Lo + (hd.Size()-1)*hd.Stride
		if !d.Contains(last) {
			return false
		}
		if hd.Stride%d.Stride != 0 {
			return false
		}
	}
	return true
}

// Shift translates the region by the direction: ZPL's "Region at d" / the
// index set touched by A@d under the covering region.
func (g Region) Shift(d Direction) (Region, error) {
	if len(d) != len(g.dims) {
		return Region{}, ErrRankMix
	}
	dims := make([]Range, len(g.dims))
	for i := range g.dims {
		dims[i] = g.dims[i].Shift(d[i])
	}
	return Region{dims: dims}, nil
}

// Intersect returns the common sub-region of g and h.
func (g Region) Intersect(h Region) (Region, error) {
	if g.Rank() != h.Rank() {
		return Region{}, ErrRankMix
	}
	dims := make([]Range, len(g.dims))
	for i := range g.dims {
		d, err := g.dims[i].Intersect(h.dims[i])
		if err != nil {
			return Region{}, err
		}
		dims[i] = d
	}
	return Region{dims: dims}, nil
}

// BoundingBox returns the smallest stride-1 region containing both g and h.
func (g Region) BoundingBox(h Region) (Region, error) {
	if g.Rank() != h.Rank() {
		return Region{}, ErrRankMix
	}
	dims := make([]Range, len(g.dims))
	for i := range g.dims {
		dims[i] = NewRange(min(g.dims[i].Lo, h.dims[i].Lo), max(g.dims[i].Hi, h.dims[i].Hi))
	}
	return Region{dims: dims}, nil
}

// Border returns ZPL's "d of g": the region adjacent to g on the side d
// points to, with thickness |d[i]| in each nonzero dimension and g's own
// extent in zero dimensions. It is the region of boundary values a
// computation over g reads through shifts by d — e.g. north of R is the
// row directly above R.
func (g Region) Border(d Direction) (Region, error) {
	if len(d) != len(g.dims) {
		return Region{}, ErrRankMix
	}
	dims := make([]Range, len(g.dims))
	for i, r := range g.dims {
		switch {
		case d[i] < 0:
			dims[i] = NewRange(r.Lo+d[i], r.Lo-1)
		case d[i] > 0:
			dims[i] = NewRange(r.Hi+1, r.Hi+d[i])
		default:
			dims[i] = r
		}
	}
	return Region{dims: dims}, nil
}

// Equal reports structural equality of two regions.
func (g Region) Equal(h Region) bool {
	if g.Rank() != h.Rank() {
		return false
	}
	for i := range g.dims {
		if g.dims[i] != h.dims[i] {
			return false
		}
	}
	return true
}

func (g Region) String() string {
	parts := make([]string, len(g.dims))
	for i, d := range g.dims {
		parts[i] = d.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// LoopDir is the iteration direction of one loop of a nest.
type LoopDir int8

const (
	// LowToHigh iterates lo, lo+stride, ..., hi.
	LowToHigh LoopDir = iota
	// HighToLow iterates hi', hi'-stride, ..., lo where hi' is the largest
	// range member.
	HighToLow
)

func (d LoopDir) String() string {
	if d == LowToHigh {
		return "low->high"
	}
	return "high->low"
}

// Each visits every point of the region with dimension i's loop running in
// direction dirs[i]; dimension 0 is outermost. A nil dirs means all
// LowToHigh. The Point passed to fn is reused across calls; callers that
// retain it must copy it.
func (g Region) Each(dirs []LoopDir, fn func(Point)) {
	if g.Empty() && g.Rank() > 0 {
		return
	}
	p := make(Point, g.Rank())
	g.each(0, dirs, p, fn)
}

func (g Region) each(d int, dirs []LoopDir, p Point, fn func(Point)) {
	if d == len(g.dims) {
		fn(p)
		return
	}
	r := g.dims[d]
	n := r.Size()
	dir := LowToHigh
	if dirs != nil {
		dir = dirs[d]
	}
	if dir == LowToHigh {
		for i := 0; i < n; i++ {
			p[d] = r.Lo + i*r.Stride
			g.each(d+1, dirs, p, fn)
		}
	} else {
		for i := n - 1; i >= 0; i-- {
			p[d] = r.Lo + i*r.Stride
			g.each(d+1, dirs, p, fn)
		}
	}
}

// Zero reports whether every component of the direction is zero.
func (d Direction) Zero() bool {
	for _, v := range d {
		if v != 0 {
			return false
		}
	}
	return true
}

// Negate returns the component-wise negation.
func (d Direction) Negate() Direction {
	n := make(Direction, len(d))
	for i, v := range d {
		n[i] = -v
	}
	return n
}

// Add returns the component-wise sum of two directions of equal rank.
func (d Direction) Add(e Direction) (Direction, error) {
	if len(d) != len(e) {
		return nil, ErrRankMix
	}
	s := make(Direction, len(d))
	for i := range d {
		s[i] = d[i] + e[i]
	}
	return s, nil
}

// Equal reports component-wise equality.
func (d Direction) Equal(e Direction) bool {
	if len(d) != len(e) {
		return false
	}
	for i := range d {
		if d[i] != e[i] {
			return false
		}
	}
	return true
}

func (d Direction) String() string {
	parts := make([]string, len(d))
	for i, v := range d {
		parts[i] = fmt.Sprint(v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// The classical 2-D cardinal directions used throughout the paper, in
// (row, column) order: north = (-1, 0) points toward lower row indices.
var (
	North = Direction{-1, 0}
	South = Direction{1, 0}
	West  = Direction{0, -1}
	East  = Direction{0, 1}
	NW    = Direction{-1, -1}
	NE    = Direction{-1, 1}
	SW    = Direction{1, -1}
	SE    = Direction{1, 1}
)
