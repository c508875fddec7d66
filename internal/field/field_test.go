package field

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"wavefront/internal/grid"
)

func TestIndexRowVsColMajor(t *testing.T) {
	bounds := grid.MustRegion(grid.NewRange(1, 3), grid.NewRange(1, 4))
	rm := MustNew("rm", bounds, RowMajor)
	cm := MustNew("cm", bounds, ColMajor)
	if rm.Stride(1) != 1 || rm.Stride(0) != 4 {
		t.Errorf("row-major strides = (%d,%d)", rm.Stride(0), rm.Stride(1))
	}
	if cm.Stride(0) != 1 || cm.Stride(1) != 3 {
		t.Errorf("col-major strides = (%d,%d)", cm.Stride(0), cm.Stride(1))
	}
	// Consecutive j is contiguous in row-major; consecutive i in col-major.
	if rm.Index2(1, 2)-rm.Index2(1, 1) != 1 {
		t.Error("row-major: j must be contiguous")
	}
	if cm.Index2(2, 1)-cm.Index2(1, 1) != 1 {
		t.Error("col-major: i must be contiguous")
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	bounds := grid.MustRegion(grid.NewRange(-2, 2), grid.NewRange(3, 7))
	for _, layout := range []Layout{RowMajor, ColMajor} {
		f := MustNew("f", bounds, layout)
		bounds.Each(nil, func(p grid.Point) {
			f.Set(p, float64(p[0]*100+p[1]))
		})
		bounds.Each(nil, func(p grid.Point) {
			want := float64(p[0]*100 + p[1])
			if got := f.At(p); got != want {
				t.Fatalf("%v: At(%v) = %g, want %g", layout, p, got, want)
			}
			if got := f.At2(p[0], p[1]); got != want {
				t.Fatalf("%v: At2(%v) = %g, want %g", layout, p, got, want)
			}
		})
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	f := MustNew("f", grid.Square(2, 1, 4), RowMajor)
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds access must panic")
		}
	}()
	f.At(grid.Point{0, 1})
}

func TestRankMismatchPanics(t *testing.T) {
	f := MustNew("f", grid.Square(2, 1, 4), RowMajor)
	defer func() {
		if recover() == nil {
			t.Error("rank-mismatched access must panic")
		}
	}()
	f.At(grid.Point{1})
}

func TestEmptyBoundsRejected(t *testing.T) {
	if _, err := New("e", grid.MustRegion(grid.NewRange(2, 1)), RowMajor); err == nil {
		t.Error("empty bounds must fail")
	}
}

func TestCloneIndependent(t *testing.T) {
	f := MustNew("f", grid.Square(2, 0, 3), RowMajor)
	f.Fill(7)
	g := f.Clone()
	g.Set2(1, 1, 9)
	if f.At2(1, 1) != 7 {
		t.Error("clone must not share storage")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	r := grid.Square(2, 0, 3)
	f := MustNew("f", r, RowMajor)
	g := MustNew("g", r, ColMajor) // layouts may differ; values compare
	f.Fill(1)
	g.Fill(1)
	g.Set2(2, 3, 1.5)
	if d := f.MaxAbsDiff(r, g); d != 0.5 {
		t.Errorf("diff = %g, want 0.5", d)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	bounds := grid.Square(2, 0, 9)
	sub := grid.MustRegion(grid.NewRange(2, 4), grid.NewRange(3, 8))
	f := func(seed uint8) bool {
		src := MustNew("s", bounds, RowMajor)
		src.FillFunc(bounds, func(p grid.Point) float64 {
			return float64(seed) + float64(p[0]*17+p[1])
		})
		dst := MustNew("d", bounds, ColMajor)
		dst.UnpackRegion(sub, src.PackRegion(sub))
		return dst.MaxAbsDiff(sub, src) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackSizeMatchesRegion(t *testing.T) {
	bounds := grid.Square(2, 0, 9)
	f := MustNew("f", bounds, RowMajor)
	sub := grid.MustRegion(grid.NewRange(1, 3), grid.NewRange(2, 2))
	if got := len(f.PackRegion(sub)); got != sub.Size() {
		t.Errorf("packed %d elements, want %d", got, sub.Size())
	}
}

func TestFormat2(t *testing.T) {
	f := MustNew("f", grid.Square(2, 1, 2), RowMajor)
	f.Set2(1, 1, 1)
	f.Set2(1, 2, 2)
	f.Set2(2, 1, 3)
	f.Set2(2, 2, 4.5)
	got := f.Format2(f.Bounds())
	if !strings.Contains(got, "1 2") || !strings.Contains(got, "3 4.5") {
		t.Errorf("Format2 = %q", got)
	}
}

// TestAppendValueMatchesSprintf pins the printed form of a number to what
// fmt produced when writeln and Format2 went through Sprintf: %d for
// integral values under 1e12, %g otherwise.
func TestAppendValueMatchesSprintf(t *testing.T) {
	old := func(v float64) string {
		if v == math.Trunc(v) && math.Abs(v) < 1e12 {
			return fmt.Sprintf("%d", int64(v))
		}
		return fmt.Sprintf("%g", v)
	}
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 42, -20, 100, 4.5, -0.1, 0.1 + 0.2,
		1e12 - 1, -(1e12 - 1), 1e12, -1e12, 1e12 + 1, 999999999999.5,
		1e15, 1e20, 1e21, 1e22, -1e21, 123456789012345678,
		1e-4, 1e-5, 1e-7, -1e-7, 3.0000000000000004, 1.0 / 3,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1e-310,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, v := range cases {
		if got, want := string(AppendValue(nil, v)), old(v); got != want {
			t.Errorf("AppendValue(%x) = %q, Sprintf gave %q", math.Float64bits(v), got, want)
		}
	}
	f := MustNew("f", grid.Square(2, 1, 2), RowMajor)
	f.Set2(1, 1, math.Copysign(0, -1))
	f.Set2(1, 2, 1e21)
	f.Set2(2, 1, math.NaN())
	f.Set2(2, 2, 0.25)
	if got, want := f.Format2(f.Bounds()), "0 1e+21\nNaN 0.25\n"; got != want {
		t.Errorf("Format2 = %q, want %q", got, want)
	}
	prefix := []byte("t:\n")
	if got := string(f.AppendFormat2(prefix, f.Bounds())); got != "t:\n0 1e+21\nNaN 0.25\n" {
		t.Errorf("AppendFormat2 onto a prefix = %q", got)
	}
	if got := MustNew("g", grid.Square(3, 0, 1), RowMajor).Format2(grid.Square(3, 0, 1)); got != "<rank-3 field>" {
		t.Errorf("Format2 of a rank-3 region = %q", got)
	}
}

func TestCopyRegion(t *testing.T) {
	bounds := grid.Square(2, 0, 5)
	src := MustNew("s", bounds, RowMajor)
	src.FillFunc(bounds, func(p grid.Point) float64 { return float64(p[0] + p[1]) })
	dst := MustNew("d", bounds, RowMajor)
	sub := grid.MustRegion(grid.NewRange(1, 2), grid.NewRange(3, 5))
	dst.CopyRegion(sub, src)
	if dst.At2(1, 3) != 4 || dst.At2(2, 5) != 7 {
		t.Error("CopyRegion copied wrong values")
	}
	if dst.At2(0, 0) != 0 {
		t.Error("CopyRegion touched points outside the region")
	}
}

func TestRank3(t *testing.T) {
	bounds := grid.MustRegion(grid.NewRange(0, 2), grid.NewRange(0, 3), grid.NewRange(0, 4))
	f := MustNew("t", bounds, RowMajor)
	if f.Len() != 3*4*5 {
		t.Fatalf("len = %d", f.Len())
	}
	p := grid.Point{1, 2, 3}
	f.Set(p, 42)
	if f.At(p) != 42 {
		t.Error("rank-3 round trip failed")
	}
	if f.Stride(2) != 1 || f.Stride(1) != 5 || f.Stride(0) != 20 {
		t.Errorf("rank-3 strides = %d %d %d", f.Stride(0), f.Stride(1), f.Stride(2))
	}
}

// TestNewFieldAllocs: a field is four allocations whatever its rank — the
// Field, its bounds' ranges (the region keeps the slice it was built over),
// its strides and its data — padded or not, and its bounds are its own: the
// caller's region may change afterwards.
func TestNewFieldAllocs(t *testing.T) {
	for _, bounds := range []grid.Region{
		grid.Square(1, 0, 7),
		grid.Square(2, 1, 512),
		grid.MustRegion(grid.NewRange(0, 3), grid.NewRange(-2, 5), grid.NewRange(1, 9)),
	} {
		for _, layout := range []Layout{RowMajor, ColMajor} {
			if got := testing.AllocsPerRun(20, func() { MustNew("a", bounds, layout) }); got != 4 {
				t.Errorf("New over %v (%v): %.0f allocations, want 4", bounds, layout, got)
			}
			if got := testing.AllocsPerRun(20, func() {
				if _, err := NewLocal("a", bounds, layout, 32); err != nil {
					t.Fatal(err)
				}
			}); got != 4 {
				t.Errorf("NewLocal over %v (%v): %.0f allocations, want 4", bounds, layout, got)
			}
		}
	}
	dims := []grid.Range{grid.NewRange(0, 3), grid.NewRange(0, 3)}
	f := MustNew("a", grid.RegionOver(dims), RowMajor)
	dims[0] = grid.NewRange(5, 9)
	if got := f.Bounds().Dim(0); got != grid.NewRange(0, 3) {
		t.Errorf("the field's bounds follow the caller's slice: dim 0 is %v", got)
	}
}
