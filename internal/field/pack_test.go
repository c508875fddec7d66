package field

import (
	"math/rand"
	"strings"
	"testing"

	"wavefront/internal/grid"
)

// refPack is the pre-odometer reference: the canonical Each walk, element
// at a time. PackInto/UnpackFrom must match it bit for bit.
func refPack(f *Field, r grid.Region) []float64 {
	out := make([]float64, 0, r.Size())
	r.Each(nil, func(p grid.Point) {
		out = append(out, f.At(p))
	})
	return out
}

func refUnpack(f *Field, r grid.Region, data []float64) {
	i := 0
	r.Each(nil, func(p grid.Point) {
		f.Set(p, data[i])
		i++
	})
}

func fillSeq(f *Field) {
	d := f.Data()
	for i := range d {
		d[i] = float64(i + 1)
	}
}

func TestPackIntoMatchesReference(t *testing.T) {
	for _, layout := range []Layout{RowMajor, ColMajor} {
		bounds := grid.MustRegion(grid.NewRange(-2, 9), grid.NewRange(0, 7))
		f := MustNew("a", bounds, layout)
		fillSeq(f)
		regions := []grid.Region{
			bounds,
			grid.MustRegion(grid.NewRange(0, 5), grid.NewRange(2, 6)),
			grid.MustRegion(grid.NewRange(3, 3), grid.NewRange(0, 7)),                  // single row
			grid.MustRegion(grid.NewRange(-2, 9), grid.NewRange(4, 4)),                 // single column
			grid.MustRegion(grid.Range{Lo: -2, Hi: 8, Stride: 2}, grid.NewRange(1, 6)), // strided outer
			grid.MustRegion(grid.NewRange(0, 4), grid.Range{Lo: 0, Hi: 6, Stride: 3}),  // strided inner
			grid.MustRegion(grid.NewRange(5, 4), grid.NewRange(0, 7)),                  // empty
		}
		for _, r := range regions {
			want := refPack(f, r)
			dst := make([]float64, r.Size())
			n, err := f.PackInto(r, dst)
			if err != nil {
				t.Fatalf("%s PackInto(%v): %v", layout, r, err)
			}
			if n != len(want) {
				t.Fatalf("%s PackInto(%v): wrote %d, want %d", layout, r, n, len(want))
			}
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("%s PackInto(%v): element %d = %g, want %g", layout, r, i, dst[i], want[i])
				}
			}
		}
	}
}

func TestUnpackFromMatchesReference(t *testing.T) {
	for _, layout := range []Layout{RowMajor, ColMajor} {
		bounds := grid.MustRegion(grid.NewRange(0, 9), grid.NewRange(-1, 6))
		r := grid.MustRegion(grid.NewRange(2, 7), grid.Range{Lo: 0, Hi: 6, Stride: 2})
		payload := make([]float64, r.Size())
		for i := range payload {
			payload[i] = float64(1000 + i)
		}
		got := MustNew("g", bounds, layout)
		want := MustNew("w", bounds, layout)
		fillSeq(got)
		fillSeq(want)
		n, err := got.UnpackFrom(r, payload)
		if err != nil {
			t.Fatalf("%s UnpackFrom: %v", layout, err)
		}
		if n != len(payload) {
			t.Fatalf("%s UnpackFrom consumed %d, want %d", layout, n, len(payload))
		}
		refUnpack(want, r, payload)
		if d := got.MaxAbsDiff(bounds, want); d != 0 {
			t.Fatalf("%s UnpackFrom differs from reference by %g", layout, d)
		}
	}
}

func TestPackIntoUndersizedErrors(t *testing.T) {
	f := MustNew("a", grid.Square(2, 0, 7), RowMajor)
	r := grid.Square(2, 0, 3) // 16 elements
	if _, err := f.PackInto(r, make([]float64, 15)); err == nil {
		t.Fatal("PackInto into a short destination must error, not truncate")
	} else if !strings.Contains(err.Error(), "destination holds 15") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if _, err := f.UnpackFrom(r, make([]float64, 15)); err == nil {
		t.Fatal("UnpackFrom from a short source must error")
	}
	// Exactly sized is fine; longer is fine (coalesced messages slice in).
	if _, err := f.PackInto(r, make([]float64, 16)); err != nil {
		t.Fatalf("exact-size destination: %v", err)
	}
	if _, err := f.PackInto(r, make([]float64, 40)); err != nil {
		t.Fatalf("oversized destination: %v", err)
	}
}

func TestPackIntoOutOfBoundsErrors(t *testing.T) {
	f := MustNew("a", grid.Square(2, 0, 7), RowMajor)
	for _, r := range []grid.Region{
		grid.MustRegion(grid.NewRange(-1, 3), grid.NewRange(0, 3)),
		grid.MustRegion(grid.NewRange(0, 8), grid.NewRange(0, 3)),
		grid.MustRegion(grid.NewRange(0, 3)), // rank mismatch
	} {
		if _, err := f.PackInto(r, make([]float64, 64)); err == nil {
			t.Fatalf("PackInto(%v) must error", r)
		}
		if _, err := f.UnpackFrom(r, make([]float64, 64)); err == nil {
			t.Fatalf("UnpackFrom(%v) must error", r)
		}
	}
}

func TestPackRegionExactAllocation(t *testing.T) {
	f := MustNew("a", grid.Square(2, 0, 15), RowMajor)
	fillSeq(f)
	r := grid.MustRegion(grid.NewRange(2, 9), grid.NewRange(3, 12))
	out := f.PackRegion(r)
	if len(out) != r.Size() || cap(out) != r.Size() {
		t.Fatalf("PackRegion: len %d cap %d, want exactly %d", len(out), cap(out), r.Size())
	}
}

func TestPackIntoRank3(t *testing.T) {
	bounds := grid.MustRegion(grid.NewRange(0, 4), grid.NewRange(-1, 3), grid.NewRange(2, 6))
	for _, layout := range []Layout{RowMajor, ColMajor} {
		f := MustNew("c", bounds, layout)
		fillSeq(f)
		r := grid.MustRegion(grid.NewRange(1, 3), grid.Range{Lo: -1, Hi: 3, Stride: 2}, grid.NewRange(3, 6))
		want := refPack(f, r)
		dst := make([]float64, r.Size())
		if _, err := f.PackInto(r, dst); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("%s rank-3 element %d = %g, want %g", layout, i, dst[i], want[i])
			}
		}
	}
}

func TestPackIntoDoesNotAllocate(t *testing.T) {
	f := MustNew("a", grid.Square(2, 0, 63), RowMajor)
	fillSeq(f)
	r := grid.MustRegion(grid.NewRange(8, 23), grid.NewRange(0, 63))
	dst := make([]float64, r.Size())
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := f.PackInto(r, dst); err != nil {
			t.Fatal(err)
		}
		if _, err := f.UnpackFrom(r, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("PackInto+UnpackFrom allocated %.1f per run, want 0", allocs)
	}
}

// FuzzPackRoundTrip derives a random field layout and region shape from
// the seed and checks (a) PackInto matches the element-at-a-time
// reference walk bit for bit and (b) UnpackFrom(PackInto(r)) restores the
// region exactly, including into a second field with different contents.
// Run a smoke pass with:
//
//	go test ./internal/field -run - -fuzz FuzzPackRoundTrip -fuzztime 10s
func FuzzPackRoundTrip(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-777))
	f.Add(int64(123456789))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		rank := 1 + rng.Intn(3)
		layout := RowMajor
		if rng.Intn(2) == 1 {
			layout = ColMajor
		}
		bdims := make([]grid.Range, rank)
		rdims := make([]grid.Range, rank)
		for d := 0; d < rank; d++ {
			lo := rng.Intn(11) - 5
			size := 1 + rng.Intn(9)
			bdims[d] = grid.NewRange(lo, lo+size-1)
			// A sub-range with random stride, kept within bounds.
			rlo := lo + rng.Intn(size)
			stride := 1 + rng.Intn(3)
			count := 1 + rng.Intn((size-(rlo-lo)+stride-1)/stride)
			rdims[d] = grid.Range{Lo: rlo, Hi: rlo + (count-1)*stride, Stride: stride}
		}
		bounds := grid.MustRegion(bdims...)
		r := grid.MustRegion(rdims...)

		src := MustNew("src", bounds, layout)
		for i, d := 0, src.Data(); i < len(d); i++ {
			d[i] = rng.NormFloat64()
		}

		want := refPack(src, r)
		got := make([]float64, r.Size())
		n, err := src.PackInto(r, got)
		if err != nil {
			t.Fatalf("PackInto(%v) of %v: %v", r, bounds, err)
		}
		if n != len(want) {
			t.Fatalf("PackInto wrote %d, want %d", n, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pack mismatch at %d: %g vs %g (region %v bounds %v %s)",
					i, got[i], want[i], r, bounds, layout)
			}
		}

		dstA := MustNew("dstA", bounds, layout)
		dstB := MustNew("dstB", bounds, layout)
		for i, d := 0, dstA.Data(); i < len(d); i++ {
			d[i] = -1e9
		}
		copy(dstB.Data(), dstA.Data())
		if _, err := dstA.UnpackFrom(r, got); err != nil {
			t.Fatalf("UnpackFrom: %v", err)
		}
		refUnpack(dstB, r, want)
		if d := dstA.MaxAbsDiff(bounds, dstB); d != 0 {
			t.Fatalf("unpack differs from reference by %g (region %v bounds %v %s)", d, r, bounds, layout)
		}
	})
}

// BenchmarkPackUnpackRow is the message path's use of the walker: one
// boundary row of a 512² field packed into a buffer and unpacked again,
// small enough that the per-call set-up shows.
func BenchmarkPackUnpackRow(b *testing.B) {
	const n = 512
	f := MustNew("a", grid.MustRegion(grid.NewRange(1, n), grid.NewRange(1, n)), RowMajor)
	fillSeq(f)
	row := grid.MustRegion(grid.NewRange(n/2, n/2), grid.NewRange(1, n))
	buf := make([]float64, n)
	b.SetBytes(2 * 8 * n)
	for i := 0; i < b.N; i++ {
		if _, err := f.PackInto(row, buf); err != nil {
			b.Fatal(err)
		}
		if _, err := f.UnpackFrom(row, buf); err != nil {
			b.Fatal(err)
		}
	}
}
