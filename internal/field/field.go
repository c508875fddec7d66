// Package field provides dense rank-N float64 arrays addressed by global
// index points. A Field owns a rectangular storage box (its bounds) that may
// be larger than the region a computation covers: the extra margin is the
// "fluff" (ghost) space that shifted references (@-operators) read and that
// the parallel runtime fills by communication.
//
// Storage layout is selectable between row-major and column-major so that
// the cache experiments can reproduce the paper's column-major Fortran
// setting faithfully.
package field

import (
	"fmt"
	"math"

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
// bounds. The region's strides are ignored for storage purposes.
func New(name string, bounds grid.Region, layout Layout) (*Field, error) {
	if bounds.Rank() == 0 {
		return nil, fmt.Errorf("field %q: rank must be >= 1", name)
	}
	dims := make([]grid.Range, bounds.Rank())
	size := 1
	for i := 0; i < bounds.Rank(); i++ {
		d := bounds.Dim(i)
		if d.Hi < d.Lo {
			return nil, fmt.Errorf("field %q: empty bounds %v in dim %d", name, d, i)
		}
		dims[i] = grid.NewRange(d.Lo, d.Hi)
		size *= dims[i].Size()
	}
	box, err := grid.NewRegion(dims...)
	if err != nil {
		return nil, err
	}
	f := &Field{
		name:   name,
		bounds: box,
		data:   make([]float64, size),
		layout: layout,
	}
	f.strides = make([]int, box.Rank())
	if layout == RowMajor {
		s := 1
		for i := box.Rank() - 1; i >= 0; i-- {
			f.strides[i] = s
			s *= box.Dim(i).Size()
		}
	} else {
		s := 1
		for i := 0; i < box.Rank(); i++ {
			f.strides[i] = s
			s *= box.Dim(i).Size()
		}
	}
	return f, nil
}

// MustNew is New for known-good arguments; it panics on error.
func MustNew(name string, bounds grid.Region, layout Layout) *Field {
	f, err := New(name, bounds, layout)
	if err != nil {
		panic(err)
	}
	return f
}

// NewWithFluff allocates a Field whose storage covers interior expanded by
// every direction in dirs, so that A@d stays in bounds over interior for
// each d.
func NewWithFluff(name string, interior grid.Region, dirs []grid.Direction, layout Layout) (*Field, error) {
	box := interior
	var err error
	for _, d := range dirs {
		box, err = box.Expand(d)
		if err != nil {
			return nil, fmt.Errorf("field %q: %w", name, err)
		}
	}
	return New(name, box, layout)
}

// Name returns the field's name.
func (f *Field) Name() string { return f.name }

// Bounds returns the storage box.
func (f *Field) Bounds() grid.Region { return f.bounds }

// Rank returns the number of dimensions.
func (f *Field) Rank() int { return f.bounds.Rank() }

// Layout reports the storage order.
func (f *Field) Layout() Layout { return f.layout }

// Len returns the number of stored elements.
func (f *Field) Len() int { return len(f.data) }

// Data exposes the raw backing slice in storage order. Intended for kernels
// and tests that need direct access; the bounds/stride contract still holds.
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

// EqualWithin reports whether f and g agree within tol over region r.
func (f *Field) EqualWithin(r grid.Region, g *Field, tol float64) bool {
	return f.MaxAbsDiff(r, g) <= tol
}

// String summarizes the field without printing its data.
func (f *Field) String() string {
	return fmt.Sprintf("field %q %v %s", f.name, f.bounds, f.layout)
}

// Format2 renders a rank-2 field's region as rows of numbers, for tests and
// small demonstrations (e.g. the paper's Figure 3 matrices).
func (f *Field) Format2(r grid.Region) string {
	if r.Rank() != 2 {
		return fmt.Sprintf("<rank-%d field>", r.Rank())
	}
	out := ""
	d0, d1 := r.Dim(0), r.Dim(1)
	for i := d0.Lo; i <= d0.Hi; i += d0.Stride {
		for j := d1.Lo; j <= d1.Hi; j += d1.Stride {
			if j > d1.Lo {
				out += " "
			}
			out += trimFloat(f.At2(i, j))
		}
		out += "\n"
	}
	return out
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e12 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
