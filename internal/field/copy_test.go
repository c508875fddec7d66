package field

import (
	"fmt"
	"math/rand"
	"testing"

	"wavefront/internal/grid"
)

// refCopyRegion is CopyRegion as it was before the block walker: one
// bounds-checked Set(At) per point. It stays here as the oracle.
func refCopyRegion(dst *Field, r grid.Region, src *Field) {
	r.Each(nil, func(p grid.Point) {
		dst.Set(p, src.At(p))
	})
}

// fillRand writes every element through its index, never Data() flat, so
// a fresh padded field's pad elements stay zero for checkPadsZero.
func fillRand(f *Field, rng *rand.Rand) {
	f.FillFunc(f.Bounds(), func(grid.Point) float64 { return rng.NormFloat64() })
}

// mustPadded is MustNew with pad unused elements after every contiguous
// run — the storage NewLocal produces, at sizes a test can afford.
func mustPadded(name string, bounds grid.Region, layout Layout, pad int) *Field {
	f, err := newField(name, bounds, layout, pad)
	if err != nil {
		panic(err)
	}
	return f
}

// checkPadsZero fails if any storage element that no index maps to holds
// a non-zero value: on a field nothing has written flat (Fill does), a
// stray write of an index-addressed operation.
func checkPadsZero(t *testing.T, f *Field) {
	t.Helper()
	real := make([]bool, f.Len())
	f.Bounds().Each(nil, func(p grid.Point) { real[f.Index(p)] = true })
	for i, v := range f.Data() {
		if !real[i] && v != 0 {
			t.Fatalf("%s: pad element %d holds %g, want 0", f.Name(), i, v)
		}
	}
}

// checkCopyAgainstOracle copies r from src into two identically filled
// destinations (dstPad pad elements per run), one through CopyRegion and
// one through the oracle, and requires the whole storage (not just r, and
// pad elements included) to agree bit for bit, so a write outside the
// region shows too.
func checkCopyAgainstOracle(t *testing.T, dstBounds grid.Region, dstLayout Layout, dstPad int, r grid.Region, src *Field) {
	t.Helper()
	got := mustPadded("got", dstBounds, dstLayout, dstPad)
	want := mustPadded("want", dstBounds, dstLayout, dstPad)
	got.Fill(-7)
	want.Fill(-7)
	got.CopyRegion(r, src)
	refCopyRegion(want, r, src)
	for i, w := range want.Data() {
		if g := got.Data()[i]; g != w {
			t.Fatalf("CopyRegion(%v) %s <- %s %v: storage element %d = %g, want %g",
				r, dstLayout, src.Layout(), src.Bounds(), i, g, w)
		}
	}
}

func TestCopyRegionMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	layouts := []Layout{RowMajor, ColMajor}
	type tc struct {
		name                 string
		srcBounds, dstBounds grid.Region
		regions              []grid.Region
	}
	r1 := func(lo, hi int) grid.Region { return grid.MustRegion(grid.NewRange(lo, hi)) }
	cases := []tc{
		{
			name:      "rank1",
			srcBounds: r1(-3, 12), dstBounds: r1(0, 9),
			regions: []grid.Region{
				r1(0, 9), r1(4, 4), r1(5, 4),
				grid.MustRegion(grid.Range{Lo: 1, Hi: 9, Stride: 4}),
			},
		},
		{
			name: "rank2",
			// The destination is the source clipped on two sides, as a
			// rank's halo-extended portion is against the global array.
			srcBounds: grid.MustRegion(grid.NewRange(0, 11), grid.NewRange(-1, 8)),
			dstBounds: grid.MustRegion(grid.NewRange(3, 9), grid.NewRange(-1, 8)),
			regions: []grid.Region{
				grid.MustRegion(grid.NewRange(3, 9), grid.NewRange(-1, 8)),                 // whole destination
				grid.MustRegion(grid.NewRange(4, 8), grid.NewRange(2, 5)),                  // interior box
				grid.MustRegion(grid.NewRange(6, 6), grid.NewRange(-1, 8)),                 // single row
				grid.MustRegion(grid.NewRange(3, 9), grid.NewRange(7, 7)),                  // single column
				grid.MustRegion(grid.NewRange(5, 5), grid.NewRange(0, 0)),                  // single point
				grid.MustRegion(grid.Range{Lo: 3, Hi: 9, Stride: 3}, grid.NewRange(0, 6)),  // strided outer
				grid.MustRegion(grid.NewRange(4, 7), grid.Range{Lo: -1, Hi: 7, Stride: 2}), // strided inner
				grid.MustRegion(grid.NewRange(7, 6), grid.NewRange(0, 8)),                  // empty
			},
		},
		{
			name:      "rank3",
			srcBounds: grid.MustRegion(grid.NewRange(0, 5), grid.NewRange(-2, 4), grid.NewRange(1, 6)),
			dstBounds: grid.MustRegion(grid.NewRange(1, 4), grid.NewRange(-2, 4), grid.NewRange(1, 6)),
			regions: []grid.Region{
				grid.MustRegion(grid.NewRange(1, 4), grid.NewRange(-2, 4), grid.NewRange(1, 6)),
				grid.MustRegion(grid.NewRange(2, 3), grid.Range{Lo: -2, Hi: 4, Stride: 2}, grid.NewRange(2, 5)),
				grid.MustRegion(grid.NewRange(2, 2), grid.NewRange(0, 0), grid.NewRange(1, 6)),
				grid.MustRegion(grid.NewRange(1, 4), grid.NewRange(3, 2), grid.NewRange(1, 6)), // empty
			},
		},
	}
	// Every pairing of dense and padded storage: 8 is NewLocal's pad, 3
	// leaves runs that start on no particular alignment.
	for _, c := range cases {
		for _, sl := range layouts {
			for _, srcPad := range []int{0, 8} {
				src := mustPadded("src", c.srcBounds, sl, srcPad)
				fillRand(src, rng)
				for _, dl := range layouts {
					for _, dstPad := range []int{0, 3, 8} {
						for _, r := range c.regions {
							checkCopyAgainstOracle(t, c.dstBounds, dl, dstPad, r, src)
						}
					}
				}
			}
		}
	}
}

// TestCopyRegionProperty draws random ranks, layouts, overlapping bounds
// and strided regions inside their intersection, over dense fields and —
// second pass, same generator — over fields with a padded pitch on either
// or both sides.
func TestCopyRegionProperty(t *testing.T) {
	for _, padded := range []bool{false, true} {
		copyRegionProperty(t, padded)
	}
}

func copyRegionProperty(t *testing.T, padded bool) {
	rng := rand.New(rand.NewSource(12))
	pad := func() int {
		if !padded {
			return 0
		}
		return []int{0, 1, 8}[rng.Intn(3)]
	}
	for iter := 0; iter < 500; iter++ {
		rank := 1 + rng.Intn(3)
		sb := make([]grid.Range, rank)
		db := make([]grid.Range, rank)
		rd := make([]grid.Range, rank)
		for d := 0; d < rank; d++ {
			// Region first, then each field's bounds grown around it by an
			// independent margin.
			lo := rng.Intn(9) - 4
			stride := 1 + rng.Intn(3)
			count := 1 + rng.Intn(6)
			rd[d] = grid.Range{Lo: lo, Hi: lo + (count-1)*stride, Stride: stride}
			sb[d] = grid.NewRange(lo-rng.Intn(3), rd[d].Hi+rng.Intn(3))
			db[d] = grid.NewRange(lo-rng.Intn(3), rd[d].Hi+rng.Intn(3))
		}
		src := mustPadded("src", grid.MustRegion(sb...), Layout(rng.Intn(2)), pad())
		fillRand(src, rng)
		checkCopyAgainstOracle(t, grid.MustRegion(db...), Layout(rng.Intn(2)), pad(), grid.MustRegion(rd...), src)
	}
}

// TestCopyRegionPanics: every refusal happens before anything is written,
// over dense fields and over padded ones — where a region one column past
// the bounds would land on pad elements, inside the storage slice, and
// must still be refused.
func TestCopyRegionPanics(t *testing.T)       { copyRegionPanics(t, 0) }
func TestCopyRegionPanicsPadded(t *testing.T) { copyRegionPanics(t, 8) }

func copyRegionPanics(t *testing.T, pad int) {
	big := mustPadded("big", grid.Square(2, 0, 9), RowMajor, pad)
	small := mustPadded("small", grid.Square(2, 2, 7), ColMajor, pad)
	line := mustPadded("line", grid.MustRegion(grid.NewRange(0, 9)), RowMajor, pad)
	over := grid.Square(2, 1, 7) // inside big, outside small
	for _, c := range []struct {
		name     string
		dst, src *Field
		r        grid.Region
	}{
		{"region outside destination", small, big, over},
		{"region outside source", big, small, over},
		{"strided region's last point outside source", big, small,
			grid.MustRegion(grid.Range{Lo: 2, Hi: 8, Stride: 3}, grid.NewRange(2, 7))},
		{"region rank differs from both", big, big, grid.MustRegion(grid.NewRange(2, 3))},
		{"source rank differs", big, line, grid.Square(2, 2, 3)},
		{"destination rank differs", line, big, grid.Square(2, 2, 3)},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := append([]float64(nil), c.dst.Data()...)
			defer func() {
				if recover() == nil {
					t.Error("CopyRegion did not panic")
				}
				for i, v := range c.dst.Data() {
					if v != before[i] {
						t.Fatalf("destination element %d written before the panic", i)
					}
				}
			}()
			c.src.Fill(3)
			c.dst.CopyRegion(c.r, c.src)
		})
	}
}

func TestCopyRegionDoesNotAllocate(t *testing.T) {
	bounds := grid.Square(2, 0, 63)
	r := grid.MustRegion(grid.NewRange(8, 23), grid.NewRange(0, 63))
	for _, l := range [][2]Layout{{RowMajor, RowMajor}, {ColMajor, ColMajor}, {RowMajor, ColMajor}} {
		dst, src := MustNew("d", bounds, l[0]), MustNew("s", bounds, l[1])
		fillSeq(src)
		if allocs := testing.AllocsPerRun(100, func() { dst.CopyRegion(r, src) }); allocs != 0 {
			t.Errorf("%s <- %s: CopyRegion allocated %.1f per run, want 0", l[0], l[1], allocs)
		}
	}
}

// BenchmarkCopyRegion times the scatter-shaped copy: a rank's half of an
// n×n global array into a local field of exactly that portion. The
// "perpoint" legs run the oracle loop for scale.
func BenchmarkCopyRegion(b *testing.B) {
	for _, n := range []int{128, 512} {
		global := grid.Square(2, 0, n-1)
		for _, l := range []Layout{RowMajor, ColMajor} {
			// Split along the dimension that is outermost in storage, as
			// the runtime's wavefront dimension is for either layout here.
			portion := grid.MustRegion(grid.NewRange(0, n/2-1), grid.NewRange(0, n-1))
			if l == ColMajor {
				portion = grid.MustRegion(grid.NewRange(0, n-1), grid.NewRange(0, n/2-1))
			}
			src := MustNew("g", global, l)
			fillSeq(src)
			for _, dl := range []Layout{l, 1 - l} {
				dst := MustNew("l", portion, dl)
				name := fmt.Sprintf("n%d/%s", n, l)
				if dl != l {
					name += "-to-" + dl.String()
				}
				b.Run(name, func(b *testing.B) {
					b.SetBytes(int64(8 * portion.Size()))
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						dst.CopyRegion(portion, src)
					}
				})
			}
			dst := MustNew("l", portion, l)
			b.Run(fmt.Sprintf("n%d/%s/perpoint", n, l), func(b *testing.B) {
				b.SetBytes(int64(8 * portion.Size()))
				for i := 0; i < b.N; i++ {
					refCopyRegion(dst, portion, src)
				}
			})
		}
	}
}
