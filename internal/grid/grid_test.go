package grid

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRangeSize(t *testing.T) {
	cases := []struct {
		r    Range
		want int
	}{
		{NewRange(1, 5), 5},
		{NewRange(5, 5), 1},
		{NewRange(6, 5), 0},
		{Range{Lo: 1, Hi: 9, Stride: 2}, 5},
		{Range{Lo: 1, Hi: 8, Stride: 2}, 4},
		{Range{Lo: 0, Hi: 0, Stride: 3}, 1},
	}
	for _, c := range cases {
		if got := c.r.Size(); got != c.want {
			t.Errorf("%v.Size() = %d, want %d", c.r, got, c.want)
		}
	}
}

func TestRangeContains(t *testing.T) {
	r := Range{Lo: 2, Hi: 10, Stride: 2}
	for _, i := range []int{2, 4, 10} {
		if !r.Contains(i) {
			t.Errorf("%v should contain %d", r, i)
		}
	}
	for _, i := range []int{1, 3, 11, 12} {
		if r.Contains(i) {
			t.Errorf("%v should not contain %d", r, i)
		}
	}
}

func TestRegionBasics(t *testing.T) {
	g := MustRegion(NewRange(2, 4), NewRange(1, 3))
	if g.Rank() != 2 {
		t.Fatalf("rank = %d", g.Rank())
	}
	if g.Size() != 9 {
		t.Fatalf("size = %d", g.Size())
	}
	if !g.Contains(Point{3, 2}) {
		t.Error("should contain (3,2)")
	}
	if g.Contains(Point{5, 2}) {
		t.Error("should not contain (5,2)")
	}
	if g.Contains(Point{3}) {
		t.Error("rank-1 point must not be contained")
	}
	if got := g.String(); got != "[2..4, 1..3]" {
		t.Errorf("String() = %q", got)
	}
}

func TestRegionShift(t *testing.T) {
	g := MustRegion(NewRange(2, 4), NewRange(1, 3))
	s, err := g.Shift(Direction{-1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := MustRegion(NewRange(1, 3), NewRange(3, 5))
	if !s.Equal(want) {
		t.Errorf("shift = %v, want %v", s, want)
	}
	if _, err := g.Shift(Direction{1}); err == nil {
		t.Error("rank-mismatched shift must fail")
	}
}

func TestRegionIntersect(t *testing.T) {
	a := MustRegion(NewRange(0, 10), NewRange(0, 10))
	b := MustRegion(NewRange(5, 15), NewRange(-3, 4))
	got, err := a.Intersect(b)
	if err != nil {
		t.Fatal(err)
	}
	want := MustRegion(NewRange(5, 10), NewRange(0, 4))
	if !got.Equal(want) {
		t.Errorf("intersect = %v, want %v", got, want)
	}
}

func TestRegionContainsRegion(t *testing.T) {
	outer := MustRegion(NewRange(0, 10), NewRange(0, 10))
	inner := MustRegion(NewRange(2, 8), NewRange(0, 10))
	if !outer.ContainsRegion(inner) {
		t.Error("outer should contain inner")
	}
	if inner.ContainsRegion(outer) {
		t.Error("inner should not contain outer")
	}
	empty := MustRegion(NewRange(5, 4), NewRange(0, 10))
	if !outer.ContainsRegion(empty) {
		t.Error("every region contains the empty region")
	}
}

func TestEachOrder(t *testing.T) {
	g := MustRegion(NewRange(1, 2), NewRange(1, 2))
	var got []Point
	g.Each(nil, func(p Point) {
		got = append(got, append(Point(nil), p...))
	})
	want := []Point{{1, 1}, {1, 2}, {2, 1}, {2, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("canonical order = %v, want %v", got, want)
	}

	got = nil
	g.Each([]LoopDir{HighToLow, LowToHigh}, func(p Point) {
		got = append(got, append(Point(nil), p...))
	})
	want = []Point{{2, 1}, {2, 2}, {1, 1}, {1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reversed-outer order = %v, want %v", got, want)
	}
}

func TestEachEmpty(t *testing.T) {
	g := MustRegion(NewRange(1, 0), NewRange(1, 5))
	n := 0
	g.Each(nil, func(Point) { n++ })
	if n != 0 {
		t.Errorf("empty region visited %d points", n)
	}
}

func TestEachCountMatchesSize(t *testing.T) {
	f := func(lo0, n0, lo1, n1 uint8) bool {
		g := MustRegion(
			NewRange(int(lo0), int(lo0)+int(n0%20)-1),
			NewRange(int(lo1), int(lo1)+int(n1%20)-1),
		)
		count := 0
		g.Each(nil, func(Point) { count++ })
		return count == g.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplit(t *testing.T) {
	parts, err := Split(NewRange(1, 10), 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []Range{NewRange(1, 4), NewRange(5, 7), NewRange(8, 10)}
	if !reflect.DeepEqual(parts, want) {
		t.Errorf("split = %v, want %v", parts, want)
	}
}

func TestSplitProperties(t *testing.T) {
	// Pieces tile the range exactly, sizes differ by at most one.
	f := func(loRaw int8, nRaw, pRaw uint8) bool {
		lo := int(loRaw)
		n := int(nRaw%100) + 1
		p := int(pRaw%8) + 1
		r := NewRange(lo, lo+n-1)
		parts, err := Split(r, p)
		if err != nil {
			return false
		}
		total, minSz, maxSz := 0, n+1, -1
		next := lo
		for _, pr := range parts {
			if pr.Size() > 0 && pr.Lo != next {
				return false
			}
			if pr.Size() > 0 {
				next = pr.Hi + 1
			}
			total += pr.Size()
			if pr.Size() < minSz {
				minSz = pr.Size()
			}
			if pr.Size() > maxSz {
				maxSz = pr.Size()
			}
		}
		return total == n && maxSz-minSz <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTiles(t *testing.T) {
	tiles := Tiles(NewRange(0, 9), 4)
	want := []Range{NewRange(0, 3), NewRange(4, 7), NewRange(8, 9)}
	if !reflect.DeepEqual(tiles, want) {
		t.Errorf("tiles = %v, want %v", tiles, want)
	}
	if got := Tiles(NewRange(0, 9), 0); len(got) != 1 || got[0] != NewRange(0, 9) {
		t.Errorf("b=0 must be one tile, got %v", got)
	}
	if got := Tiles(NewRange(3, 2), 2); got != nil {
		t.Errorf("empty range tiles = %v", got)
	}
}

// TestTilesCoverExactly: the tiles' indices, in order, are the range's
// indices — at every stride, also when Hi lies off the lattice — and every
// tile but the last holds b of them.
func TestTilesCoverExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		lo := rng.Intn(20) - 10
		n := rng.Intn(50) + 1
		b := rng.Intn(60)
		stride := 1 + rng.Intn(3)
		r := Range{Lo: lo, Hi: lo + (n-1)*stride + rng.Intn(stride), Stride: stride}
		tiles := Tiles(r, b)
		next := lo
		for k, tl := range tiles {
			if tl.Stride != stride || tl.Lo != next {
				t.Fatalf("%v b=%d: tile %v, expected lo %d at stride %d", r, b, tl, next, stride)
			}
			if k < len(tiles)-1 && tl.Size() != b {
				t.Fatalf("%v b=%d: inner tile %v holds %d indices", r, b, tl, tl.Size())
			}
			next += tl.Size() * stride
		}
		if next != lo+n*stride {
			t.Fatalf("%v b=%d: tiles %v cover %d of %d indices", r, b, tiles, (next-lo)/stride, n)
		}
	}
}

func TestDirectionOps(t *testing.T) {
	if !(Direction{0, 0}).Zero() || North.Zero() {
		t.Error("zero misclassified")
	}
	if !North.Negate().Equal(South) {
		t.Errorf("negate(north) = %v", North.Negate())
	}
	sum, err := North.Add(East)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Equal(NE) {
		t.Errorf("north+east = %v", sum)
	}
}

func TestSplitRegionStridedDimFails(t *testing.T) {
	g := MustRegion(Range{Lo: 0, Hi: 10, Stride: 2}, NewRange(0, 5))
	if _, err := SplitRegion(g, 0, 2); err == nil {
		t.Error("splitting a strided dimension must fail")
	}
	if _, err := SplitRegion(g, 5, 2); err == nil {
		t.Error("splitting an out-of-range dimension must fail")
	}
}

func TestBorder(t *testing.T) {
	r := MustRegion(NewRange(1, 8), NewRange(1, 8))
	cases := []struct {
		d    Direction
		want Region
	}{
		{North, MustRegion(NewRange(0, 0), NewRange(1, 8))},
		{South, MustRegion(NewRange(9, 9), NewRange(1, 8))},
		{West, MustRegion(NewRange(1, 8), NewRange(0, 0))},
		{East, MustRegion(NewRange(1, 8), NewRange(9, 9))},
		{Direction{-2, 0}, MustRegion(NewRange(-1, 0), NewRange(1, 8))},
		{NE, MustRegion(NewRange(0, 0), NewRange(9, 9))},
	}
	for _, c := range cases {
		got, err := r.Border(c.d)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(c.want) {
			t.Errorf("Border(%v) = %v, want %v", c.d, got, c.want)
		}
	}
	if _, err := r.Border(Direction{1}); err == nil {
		t.Error("rank mismatch must fail")
	}
}

// TestBorderAdjacency: d of R is exactly the set of cells A@d reads from
// outside R when the covering region is R and the shift is the cardinal d.
func TestBorderAdjacency(t *testing.T) {
	r := MustRegion(NewRange(2, 5), NewRange(3, 7))
	for _, d := range []Direction{North, South, West, East} {
		border, err := r.Border(d)
		if err != nil {
			t.Fatal(err)
		}
		shifted, err := r.Shift(d)
		if err != nil {
			t.Fatal(err)
		}
		// Every border point is read by the shift, and none is inside R.
		border.Each(nil, func(p Point) {
			if !shifted.Contains(p) {
				t.Errorf("border point %v of %v not read by shift %v", p, d, d)
			}
			if r.Contains(p) {
				t.Errorf("border point %v lies inside the region", p)
			}
		})
	}
}

func TestBoundingBox(t *testing.T) {
	a := MustRegion(NewRange(1, 4), NewRange(2, 3))
	b := MustRegion(NewRange(3, 9), NewRange(0, 1))
	box, err := a.BoundingBox(b)
	if err != nil {
		t.Fatal(err)
	}
	if !box.Equal(MustRegion(NewRange(1, 9), NewRange(0, 3))) {
		t.Errorf("bbox = %v", box)
	}
	if _, err := a.BoundingBox(MustRegion(NewRange(1, 2))); err == nil {
		t.Error("rank mismatch must fail")
	}
}

func TestMustRegionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustRegion with bad stride must panic")
		}
	}()
	MustRegion(Range{Lo: 1, Hi: 2, Stride: 0})
}

func TestNewRegionBadStride(t *testing.T) {
	if _, err := NewRegion(Range{Lo: 1, Hi: 5, Stride: -1}); err == nil {
		t.Error("negative stride must fail")
	}
}

func TestDirectionAddRankMismatch(t *testing.T) {
	if _, err := North.Add(Direction{1}); err == nil {
		t.Error("rank mismatch must fail")
	}
}

func TestLoopDirString(t *testing.T) {
	if LowToHigh.String() != "low->high" || HighToLow.String() != "high->low" {
		t.Error("LoopDir strings wrong")
	}
}

func TestIntersectStrideMismatch(t *testing.T) {
	a := MustRegion(Range{Lo: 0, Hi: 8, Stride: 2})
	b := MustRegion(NewRange(0, 8))
	if _, err := a.Intersect(b); err == nil {
		t.Error("stride mismatch must fail")
	}
}
