// Package field provides dense rank-N float64 arrays addressed by global
// index points. A Field owns a rectangular storage box (its bounds) that may
// be larger than the region a computation covers: the extra margin is the
// "fluff" (ghost) space that shifted references (@-operators) read and that
// the parallel runtime fills by communication.
//
// Storage layout is selectable between row-major and column-major so that
// the cache experiments can reproduce the paper's column-major Fortran
// setting faithfully.
//
// Bounds and pitch are separate things. The bounds say which global indices
// the field holds; the strides say where they live. A field built by New is
// dense: Len() equals the bounds' size and Data() holds exactly the
// elements, in layout order. A field built by NewLocal may carry a row
// pitch longer than its contiguous extent (see NewLocal for when): then
// Len() exceeds the bounds' size and Data() is storage order with pad
// elements after every contiguous run. Pad elements belong to no index —
// Index, the bulk copies and every kernel address through Stride(d) and
// never reach them — and their contents mean nothing. Code that walks
// Data() flat (Fill, snapshots, checksums, a whole-field copy between two
// fields of one geometry) stays correct; code that wants element k of a
// dense array must use a field from New.
package field

import (
	"fmt"
	"math"
	"strconv"

	"wavefront/internal/grid"
)

// Layout selects the linearization order of a Field's storage.
type Layout int8

const (
	// RowMajor places the last dimension contiguously (C order).
	RowMajor Layout = iota
	// ColMajor places the first dimension contiguously (Fortran order).
	ColMajor
)

func (l Layout) String() string {
	if l == ColMajor {
		return "col-major"
	}
	return "row-major"
}

// Field is a dense array of float64 over a rectangular box of global
// indices. The zero Field is not usable; construct with New.
type Field struct {
	name    string
	bounds  grid.Region // stride-1 storage box
	strides []int
	data    []float64
	layout  Layout
}

// New allocates a Field whose storage covers the stride-1 bounding box of
// bounds, densely. The region's strides are ignored for storage purposes.
func New(name string, bounds grid.Region, layout Layout) (*Field, error) {
	return newField(name, bounds, layout, 0)
}

// Pitch padding of NewLocal. When a contiguous run is a whole number of
// aliasPeriod bytes, every run starts at the same offset into a page and —
// in a set-indexed cache — the same column of every run, of every such
// field, competes for the same few sets; a tile that walks a narrow band of
// columns down many rows then misses on rows it touched a moment ago. One
// cache line of pad per run (padElems float64s) staggers the runs across
// the sets. A wide band loses more than it gains: its runs no longer start
// on page boundaries, and at half a row per run the padded walk measured
// 8–10 % slower than the dense one, level at a quarter (EXPERIMENTS.md,
// "Tile pitch and halo direction") — hence narrowDiv.
const (
	aliasPeriod = 4096
	padElems    = 8
	narrowDiv   = 4
)

// NewLocal is New for storage nobody outside the runtime addresses flat —
// a rank's local portion of an array — whose owner will walk it in tiles
// tile elements wide along the contiguous dimension (0: whole runs). The
// row pitch is padded by one cache line exactly when PadsLocal says so, so
// such a field may have Len() larger than its bounds' size. Everything else
// is as New says.
func NewLocal(name string, bounds grid.Region, layout Layout, tile int) (*Field, error) {
	pad := 0
	if PadsLocal(bounds, layout, tile) {
		pad = padElems
	}
	return newField(name, bounds, layout, pad)
}

// PadsLocal reports whether NewLocal pads the row pitch of a field over
// bounds walked in tiles tile elements wide: exactly when the contiguous
// extent is a whole number of 4096 bytes and the tiles are at most a
// quarter of it wide (512 float64s walked 32 at a time pad; 128 do not, nor
// do 512 walked whole).
func PadsLocal(bounds grid.Region, layout Layout, tile int) bool {
	rank := bounds.Rank()
	if rank < 2 || tile <= 0 {
		return false
	}
	n := bounds.Dim(unitDim(rank, layout)).Size()
	return n*8%aliasPeriod == 0 && narrowDiv*tile <= n
}

// unitDim is the contiguous dimension of a rank-dimensional layout, and
// outerDim the one with the largest stride.
func unitDim(rank int, layout Layout) int {
	if layout == ColMajor {
		return 0
	}
	return rank - 1
}

func outerDim(rank int, layout Layout) int { return rank - 1 - unitDim(rank, layout) }

// newField allocates the storage box of bounds with pad unused elements
// after every contiguous run.
func newField(name string, bounds grid.Region, layout Layout, pad int) (*Field, error) {
	if bounds.Rank() == 0 {
		return nil, fmt.Errorf("field %q: rank must be >= 1", name)
	}
	dims := make([]grid.Range, bounds.Rank())
	for i := 0; i < bounds.Rank(); i++ {
		d := bounds.Dim(i)
		if d.Hi < d.Lo {
			return nil, fmt.Errorf("field %q: empty bounds %v in dim %d", name, d, i)
		}
		dims[i] = grid.NewRange(d.Lo, d.Hi)
	}
	// The ranges are stride 1 and dims is the field's own: the bounds keep it.
	box := grid.RegionOver(dims)
	f := &Field{name: name, bounds: box, layout: layout}
	// Strides from the unit-stride dimension outwards; only its extent is
	// padded, so every outer stride is a whole number of pitches.
	rank := box.Rank()
	f.strides = make([]int, rank)
	s := 1
	for k := 0; k < rank; k++ {
		d := rank - 1 - k
		if layout == ColMajor {
			d = k
		}
		f.strides[d] = s
		s *= box.Dim(d).Size()
		if k == 0 {
			s += pad
		}
	}
	f.data = make([]float64, s)
	return f, nil
}

// View returns a Field over the sub-box bounds of f that shares f's
// storage: a write through either is seen through the other. It is allowed
// only where the view is one contiguous piece of f's storage — bounds are
// stride 1, lie within f's box, and equal it in every dimension but the
// outermost storage one (dimension 0 row-major, the last col-major) — so
// Data() is exactly the view's storage, pad elements included, and a flat
// walk of it touches nothing outside the sub-box. ok is false otherwise.
func (f *Field) View(bounds grid.Region) (v *Field, ok bool) {
	rank := f.bounds.Rank()
	if bounds.Rank() != rank {
		return nil, false
	}
	outer := outerDim(rank, f.layout)
	for d := 0; d < rank; d++ {
		b, p := bounds.Dim(d), f.bounds.Dim(d)
		if b.Stride != 1 || b.Lo > b.Hi || b.Lo < p.Lo || b.Hi > p.Hi || d != outer && b != p {
			return nil, false
		}
	}
	o := bounds.Dim(outer)
	lo := (o.Lo - f.bounds.Dim(outer).Lo) * f.strides[outer]
	hi := lo + o.Size()*f.strides[outer]
	return &Field{name: f.name, bounds: bounds, strides: f.strides, data: f.data[lo:hi:hi], layout: f.layout}, true
}

// MustNew is New for known-good arguments; it panics on error.
func MustNew(name string, bounds grid.Region, layout Layout) *Field {
	f, err := New(name, bounds, layout)
	if err != nil {
		panic(err)
	}
	return f
}

// Name returns the field's name.
func (f *Field) Name() string { return f.name }

// Bounds returns the storage box.
func (f *Field) Bounds() grid.Region { return f.bounds }

// Rank returns the number of dimensions.
func (f *Field) Rank() int { return f.bounds.Rank() }

// Layout reports the storage order.
func (f *Field) Layout() Layout { return f.layout }

// Len returns the number of stored elements, pad elements included: the
// bounds' size for a field from New, possibly more for one from NewLocal.
func (f *Field) Len() int { return len(f.data) }

// Data exposes the raw backing slice in storage order. Intended for kernels
// and tests that need direct access; the bounds/stride contract still holds,
// and a padded field's pad elements sit between the runs.
func (f *Field) Data() []float64 { return f.data }

// Stride returns the storage stride of dimension d, in elements.
func (f *Field) Stride(d int) int { return f.strides[d] }

// Index converts a global point to a flat storage offset. It panics if the
// point is outside the bounds; shifted reads must stay within fluff.
func (f *Field) Index(p grid.Point) int {
	if len(p) != f.bounds.Rank() {
		panic(fmt.Sprintf("field %q: point %v has rank %d, want %d", f.name, p, len(p), f.bounds.Rank()))
	}
	off := 0
	for k, x := range p {
		d := f.bounds.Dim(k)
		if x < d.Lo || x > d.Hi {
			panic(fmt.Sprintf("field %q: index %v outside bounds %v (dim %d)", f.name, p, f.bounds, k))
		}
		off += (x - d.Lo) * f.strides[k]
	}
	return off
}

// At reads the element at global point p.
func (f *Field) At(p grid.Point) float64 { return f.data[f.Index(p)] }

// Set writes the element at global point p.
func (f *Field) Set(p grid.Point, v float64) { f.data[f.Index(p)] = v }

// Index2 is the rank-2 fast path of Index.
func (f *Field) Index2(i, j int) int {
	d0, d1 := f.bounds.Dim(0), f.bounds.Dim(1)
	return (i-d0.Lo)*f.strides[0] + (j-d1.Lo)*f.strides[1]
}

// At2 reads element (i, j) of a rank-2 field.
func (f *Field) At2(i, j int) float64 { return f.data[f.Index2(i, j)] }

// Set2 writes element (i, j) of a rank-2 field.
func (f *Field) Set2(i, j int, v float64) { f.data[f.Index2(i, j)] = v }

// Fill sets every stored element (including fluff) to v.
func (f *Field) Fill(v float64) {
	for i := range f.data {
		f.data[i] = v
	}
}

// FillFunc sets every element of the given region from fn(point). The point
// passed to fn is reused; fn must not retain it.
func (f *Field) FillFunc(r grid.Region, fn func(grid.Point) float64) {
	r.Each(nil, func(p grid.Point) {
		f.Set(p, fn(p))
	})
}

// Clone returns a deep copy of the field, sharing nothing.
func (f *Field) Clone() *Field {
	g := &Field{
		name:    f.name,
		bounds:  f.bounds,
		strides: append([]int(nil), f.strides...),
		data:    append([]float64(nil), f.data...),
		layout:  f.layout,
	}
	return g
}

// MaxAbsDiff returns the largest |f - g| over region r. Both fields must
// cover r.
func (f *Field) MaxAbsDiff(r grid.Region, g *Field) float64 {
	worst := 0.0
	r.Each(nil, func(p grid.Point) {
		d := math.Abs(f.At(p) - g.At(p))
		if d > worst {
			worst = d
		}
	})
	return worst
}

// String summarizes the field without printing its data.
func (f *Field) String() string {
	return fmt.Sprintf("field %q %v %s", f.name, f.bounds, f.layout)
}

// Format2 renders a rank-2 field's region as rows of numbers, for tests and
// small demonstrations (e.g. the paper's Figure 3 matrices).
func (f *Field) Format2(r grid.Region) string { return string(f.AppendFormat2(nil, r)) }

// AppendFormat2 appends Format2's text to dst.
func (f *Field) AppendFormat2(dst []byte, r grid.Region) []byte {
	if r.Rank() != 2 {
		return fmt.Appendf(dst, "<rank-%d field>", r.Rank())
	}
	d0, d1 := r.Dim(0), r.Dim(1)
	for i := d0.Lo; i <= d0.Hi; i += d0.Stride {
		for j := d1.Lo; j <= d1.Hi; j += d1.Stride {
			if j > d1.Lo {
				dst = append(dst, ' ')
			}
			dst = AppendValue(dst, f.At2(i, j))
		}
		dst = append(dst, '\n')
	}
	return dst
}

// AppendValue appends v the way the printed tables show a number: integral
// values under 1e12 as integers, anything else in the shortest form that
// reads back exactly (fmt's %g).
func AppendValue(dst []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e12 {
		return strconv.AppendInt(dst, int64(v), 10)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}
