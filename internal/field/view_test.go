package field

import (
	"testing"

	"wavefront/internal/grid"
)

// checkView holds v to being the sub-box bounds of f: same strides, every
// point at f's storage, Data() exactly the box's storage (no element before
// its first point or past its last run, nothing appendable in place), and a
// write through the view seen by the parent.
func checkView(t *testing.T, what string, f, v *Field, bounds grid.Region) {
	t.Helper()
	if !v.Bounds().Equal(bounds) || v.Layout() != f.Layout() || v.Name() != f.Name() {
		t.Fatalf("%s: view %v, want %v over %v", what, v, f, bounds)
	}
	for d := 0; d < f.Rank(); d++ {
		if v.Stride(d) != f.Stride(d) {
			t.Fatalf("%s: view stride(%d) = %d, parent's %d", what, d, v.Stride(d), f.Stride(d))
		}
	}
	first := make(grid.Point, bounds.Rank())
	for d := range first {
		first[d] = bounds.Dim(d).Lo
	}
	outer := outerDim(f.Rank(), f.Layout())
	if want := bounds.Dim(outer).Size() * f.Stride(outer); v.Len() != want || cap(v.Data()) != want {
		t.Fatalf("%s: view holds %d elements (cap %d), want exactly %d", what, v.Len(), cap(v.Data()), want)
	}
	if &v.Data()[0] != &f.Data()[f.Index(first)] {
		t.Fatalf("%s: view's first element is not the parent's at %v", what, first)
	}
	bounds.Each(nil, func(p grid.Point) {
		if &v.Data()[v.Index(p)] != &f.Data()[f.Index(p)] {
			t.Fatalf("%s: view's %v is not the parent's", what, p)
		}
	})
	v.Set(first, -7)
	if f.At(first) != -7 {
		t.Fatalf("%s: a write through the view at %v did not land in the parent", what, first)
	}
}

// TestViewOuterDimensionCuts: a cut along the outermost storage dimension —
// dimension 0 row-major, the last col-major — of dense and padded parents,
// ranks 1 to 3, and the whole box in either layout, is one contiguous piece
// of the parent.
func TestViewOuterDimensionCuts(t *testing.T) {
	r := grid.NewRange
	for _, c := range []struct {
		name   string
		parent func() *Field
		bounds grid.Region
	}{
		{"row-major rows", func() *Field { return MustNew("a", grid.MustRegion(r(1, 8), r(0, 5)), RowMajor) },
			grid.MustRegion(r(3, 6), r(0, 5))},
		{"row-major first row", func() *Field { return MustNew("a", grid.MustRegion(r(1, 8), r(0, 5)), RowMajor) },
			grid.MustRegion(r(1, 1), r(0, 5))},
		{"col-major columns", func() *Field { return MustNew("a", grid.MustRegion(r(0, 5), r(1, 8)), ColMajor) },
			grid.MustRegion(r(0, 5), r(2, 8))},
		{"rank 1", func() *Field { return MustNew("a", grid.MustRegion(r(-3, 9)), RowMajor) },
			grid.MustRegion(r(0, 4))},
		{"rank 3 row-major", func() *Field { return MustNew("a", grid.MustRegion(r(0, 4), r(1, 3), r(1, 6)), RowMajor) },
			grid.MustRegion(r(2, 3), r(1, 3), r(1, 6))},
		{"rank 3 col-major", func() *Field { return MustNew("a", grid.MustRegion(r(1, 6), r(1, 3), r(0, 4)), ColMajor) },
			grid.MustRegion(r(1, 6), r(1, 3), r(4, 4))},
		{"padded rows", func() *Field { return mustPadded("a", grid.MustRegion(r(0, 5), r(1, 8)), RowMajor, 8) },
			grid.MustRegion(r(2, 4), r(1, 8))},
		{"padded columns", func() *Field { return mustPadded("a", grid.MustRegion(r(1, 8), r(0, 5)), ColMajor, 8) },
			grid.MustRegion(r(1, 8), r(0, 2))},
		{"whole box row-major", func() *Field { return MustNew("a", grid.MustRegion(r(1, 4), r(1, 4)), RowMajor) },
			grid.MustRegion(r(1, 4), r(1, 4))},
		{"whole box col-major", func() *Field { return MustNew("a", grid.MustRegion(r(1, 4), r(1, 4)), ColMajor) },
			grid.MustRegion(r(1, 4), r(1, 4))},
	} {
		f := c.parent()
		for i := range f.Data() {
			f.Data()[i] = float64(i)
		}
		v, ok := f.View(c.bounds)
		if !ok {
			t.Fatalf("%s: View(%v) of %v refused", c.name, c.bounds, f)
		}
		checkView(t, c.name, f, v, c.bounds)
	}
}

// TestViewRefusals: a sub-box that would not be one contiguous piece of the
// parent — cut along an inner dimension — or is no sub-box at all is
// refused.
func TestViewRefusals(t *testing.T) {
	r := grid.NewRange
	rowMajor := MustNew("a", grid.MustRegion(r(1, 8), r(1, 6)), RowMajor)
	colMajor := MustNew("a", grid.MustRegion(r(1, 8), r(1, 6)), ColMajor)
	for _, c := range []struct {
		name   string
		f      *Field
		bounds grid.Region
	}{
		{"row-major inner cut", rowMajor, grid.MustRegion(r(1, 8), r(2, 6))},
		{"row-major cut in both", rowMajor, grid.MustRegion(r(2, 4), r(2, 6))},
		{"col-major inner cut", colMajor, grid.MustRegion(r(2, 8), r(1, 6))},
		{"strided outer range", rowMajor, grid.MustRegion(grid.Range{Lo: 2, Hi: 6, Stride: 2}, r(1, 6))},
		{"below the box", rowMajor, grid.MustRegion(r(0, 3), r(1, 6))},
		{"past the box", rowMajor, grid.MustRegion(r(5, 9), r(1, 6))},
		{"wider than the box", rowMajor, grid.MustRegion(r(2, 3), r(0, 7))},
		{"empty", rowMajor, grid.MustRegion(r(4, 3), r(1, 6))},
		{"rank differs", rowMajor, grid.MustRegion(r(1, 8))},
	} {
		if v, ok := c.f.View(c.bounds); ok || v != nil {
			t.Errorf("%s: View(%v) of %v = %v, want a refusal", c.name, c.bounds, c.f, v)
		}
	}
}

// TestPadsLocalIsNewLocalsRule: the predicate and the allocation agree.
func TestPadsLocalIsNewLocalsRule(t *testing.T) {
	r := grid.NewRange
	for _, b := range []grid.Region{
		grid.MustRegion(r(1, 24), r(1, 512)),
		grid.MustRegion(r(1, 512), r(1, 24)),
		grid.MustRegion(r(1, 24), r(1, 128)),
		grid.MustRegion(r(1, 512)),
	} {
		for _, layout := range []Layout{RowMajor, ColMajor} {
			for _, tile := range []int{0, 32, 128, 129} {
				f, err := NewLocal("l", b, layout, tile)
				if err != nil {
					t.Fatal(err)
				}
				if padded := f.Len() > b.Size(); padded != PadsLocal(b, layout, tile) {
					t.Errorf("%v %s tile %d: NewLocal padded %v, PadsLocal says %v", b, layout, tile, padded, !padded)
				}
			}
		}
	}
}
