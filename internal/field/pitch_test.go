package field

import (
	"math/rand"
	"testing"

	"wavefront/internal/grid"
)

// TestNewLocalPitch pins when rank-local storage is padded: exactly when
// the contiguous extent is a whole number of 4096 bytes and the owner's
// tiles are at most a quarter of it wide, by one cache line, whatever the
// layout — and never for a field from New.
func TestNewLocalPitch(t *testing.T) {
	box := func(extents ...int) grid.Region {
		dims := make([]grid.Range, len(extents))
		for i, n := range extents {
			dims[i] = grid.NewRange(1, n)
		}
		return grid.MustRegion(dims...)
	}
	for _, c := range []struct {
		name    string
		bounds  grid.Region
		layout  Layout
		tile    int
		strides []int
		length  int
	}{
		{"512 columns in tiles of 32 pad", box(24, 512), RowMajor, 32, []int{520, 1}, 24 * 520},
		{"in tiles of 128 (a quarter) too", box(24, 512), RowMajor, 128, []int{520, 1}, 24 * 520},
		{"in tiles of 129 they do not", box(24, 512), RowMajor, 129, []int{512, 1}, 24 * 512},
		{"nor walked whole", box(24, 512), RowMajor, 0, []int{512, 1}, 24 * 512},
		{"128 columns do not", box(24, 128), RowMajor, 32, []int{128, 1}, 24 * 128},
		{"1024 columns pad", box(3, 1024), RowMajor, 16, []int{1032, 1}, 3 * 1032},
		{"513 columns do not", box(3, 513), RowMajor, 16, []int{513, 1}, 3 * 513},
		{"col-major pads its rows", box(512, 24), ColMajor, 32, []int{1, 520}, 24 * 520},
		{"col-major 512 columns do not", box(24, 512), ColMajor, 4, []int{1, 24}, 24 * 512},
		{"rank 3 pads the innermost extent only", box(4, 3, 512), RowMajor, 8, []int{3 * 520, 520, 1}, 4 * 3 * 520},
		{"rank 1 has no pitch", box(512), RowMajor, 8, []int{1}, 512},
	} {
		f, err := NewLocal("l", c.bounds, c.layout, c.tile)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for d, want := range c.strides {
			if got := f.Stride(d); got != want {
				t.Errorf("%s: NewLocal stride(%d) = %d, want %d", c.name, d, got, want)
			}
		}
		if f.Len() != c.length || len(f.Data()) != c.length {
			t.Errorf("%s: NewLocal Len = %d, want %d", c.name, f.Len(), c.length)
		}
		if !f.Bounds().Equal(c.bounds) {
			t.Errorf("%s: bounds %v, want %v", c.name, f.Bounds(), c.bounds)
		}
		dense := MustNew("g", c.bounds, c.layout)
		if dense.Len() != c.bounds.Size() {
			t.Errorf("%s: New Len = %d, want the bounds' size %d", c.name, dense.Len(), c.bounds.Size())
		}
	}
	if _, err := NewLocal("bad", grid.MustRegion(grid.NewRange(3, 2), grid.NewRange(1, 512)), RowMajor, 32); err == nil {
		t.Error("NewLocal accepted empty bounds")
	}
}

// TestPaddedFieldOperations drives everything that touches storage —
// Index, Fill, Clone, PackInto, UnpackFrom, CopyRegion — over padded
// fields of both layouts and ranks 2 and 3, against per-point oracles, and
// checks that the index-addressed ones write no pad element.
func TestPaddedFieldOperations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct {
		bounds grid.Region
		inner  grid.Region
	}{
		{grid.MustRegion(grid.NewRange(-1, 6), grid.NewRange(2, 9)),
			grid.MustRegion(grid.NewRange(0, 5), grid.Range{Lo: 3, Hi: 9, Stride: 2})},
		{grid.MustRegion(grid.NewRange(0, 3), grid.NewRange(1, 4), grid.NewRange(-2, 5)),
			grid.MustRegion(grid.NewRange(1, 2), grid.NewRange(1, 4), grid.NewRange(-1, 5))},
	} {
		for _, layout := range []Layout{RowMajor, ColMajor} {
			f := mustPadded("f", c.bounds, layout, 8)
			if f.Len() <= c.bounds.Size() {
				t.Fatalf("%v %s: Len %d does not exceed the bounds' size %d", c.bounds, layout, f.Len(), c.bounds.Size())
			}

			// Index: one distinct in-range slot per point.
			seen := map[int]bool{}
			c.bounds.Each(nil, func(p grid.Point) {
				i := f.Index(p)
				if i < 0 || i >= f.Len() || seen[i] {
					t.Fatalf("%v %s: Index(%v) = %d is out of range or taken", c.bounds, layout, p, i)
				}
				seen[i] = true
			})

			// Fill reaches every element.
			f.Fill(2.5)
			c.bounds.Each(nil, func(p grid.Point) {
				if f.At(p) != 2.5 {
					t.Fatalf("%v %s: Fill left %v = %g", c.bounds, layout, p, f.At(p))
				}
			})

			// Pack against the per-point walk, unpack it into a second
			// padded field, copy that into a dense one.
			fillRand(f, rng)
			packed := make([]float64, c.inner.Size())
			if n, err := f.PackInto(c.inner, packed); err != nil || n != len(packed) {
				t.Fatalf("%v %s: PackInto = %d, %v", c.bounds, layout, n, err)
			}
			k := 0
			c.inner.Each(nil, func(p grid.Point) {
				if packed[k] != f.At(p) {
					t.Fatalf("%v %s: packed[%d] = %g, want %v's %g", c.bounds, layout, k, packed[k], p, f.At(p))
				}
				k++
			})
			g := mustPadded("g", c.bounds, 1-layout, 8)
			if _, err := g.UnpackFrom(c.inner, packed); err != nil {
				t.Fatal(err)
			}
			checkPadsZero(t, g)
			dense := MustNew("d", c.bounds, layout)
			dense.CopyRegion(c.inner, g)
			c.bounds.Each(nil, func(p grid.Point) {
				want := 0.0
				if c.inner.Contains(p) {
					want = f.At(p)
				}
				if g.At(p) != want || dense.At(p) != want {
					t.Fatalf("%v %s: after unpack and copy %v holds %g and %g, want %g", c.bounds, layout, p, g.At(p), dense.At(p), want)
				}
			})

			// Clone shares nothing and keeps the geometry.
			cl := f.Clone()
			if cl.Len() != f.Len() {
				t.Fatalf("clone Len %d, want %d", cl.Len(), f.Len())
			}
			for d := 0; d < f.Rank(); d++ {
				if cl.Stride(d) != f.Stride(d) {
					t.Fatalf("clone stride(%d) %d, want %d", d, cl.Stride(d), f.Stride(d))
				}
			}
			cl.Fill(-1)
			if d := f.MaxAbsDiff(c.bounds, cl); d == 0 {
				t.Fatal("filling the clone changed nothing relative to the original")
			}
			c.bounds.Each(nil, func(p grid.Point) {
				if f.At(p) == -1 {
					t.Fatalf("filling the clone wrote the original at %v", p)
				}
			})
		}
	}
}

// TestPaddedFieldRefusals: a padded field's storage slice is longer than
// its bounds, so an index one past the contiguous extent lands on a pad
// element inside the slice — Index, PackInto and UnpackFrom must refuse it
// by the bounds, not by the slice.
func TestPaddedFieldRefusals(t *testing.T) {
	bounds := grid.MustRegion(grid.NewRange(0, 3), grid.NewRange(0, 7))
	f := mustPadded("f", bounds, RowMajor, 8)
	f.FillFunc(bounds, func(grid.Point) float64 { return 1 })
	onPad := grid.MustRegion(grid.NewRange(1, 2), grid.NewRange(6, 8)) // column 8 is pad storage
	buf := make([]float64, onPad.Size())
	if _, err := f.PackInto(onPad, buf); err == nil {
		t.Error("PackInto read a region that reaches the pad elements")
	}
	if _, err := f.UnpackFrom(onPad, buf); err == nil {
		t.Error("UnpackFrom wrote a region that reaches the pad elements")
	}
	checkPadsZero(t, f)
	defer func() {
		if recover() == nil {
			t.Error("Index accepted a point on a pad element")
		}
	}()
	f.Index(grid.Point{1, 8})
}
