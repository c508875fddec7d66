package field

import (
	"fmt"

	"wavefront/internal/grid"
)

// This file is the bulk-copy half of the package: packing a region of a
// field into the flat slice a message carries, unpacking a received slice
// back into a region, and copying a region between two fields (scatter,
// gather, reset). The canonical buffer order — every dimension
// low-to-high, dimension 0 outermost — is the wire format both ends of a
// message agree on.
//
// All three run on one walker, copyBlock: a fixed-size odometer (no
// per-point closure, no Point allocation) over a (destination steps,
// source steps) pair, validated once per call by checkRegion, that
// degrades to a single memmove per innermost run wherever both sides are
// unit-stride. A message buffer is just the side whose steps are the dense
// row-major ones. PackRegion/UnpackRegion remain as the allocating
// conveniences built on the same loop.

// maxOdoRank bounds the stack-allocated odometer; regions of higher rank
// (none exist in practice — the paper's workloads are rank 2 and 3) fall
// back to the Each-based walk.
const maxOdoRank = 8

// dimVec holds one int per region dimension on the stack: point counts, or
// one side's steps — the element distance between consecutive region
// points along each dimension.
type dimVec [maxOdoRank]int

// PackInto copies the elements of region r out of the field into dst in
// canonical order and returns the number of elements written. It is an
// error — not a silent truncation — when dst is shorter than r.Size(),
// and an error when r does not lie within the field's storage bounds.
// PackInto never allocates for regions of rank <= 8.
func (f *Field) PackInto(r grid.Region, dst []float64) (int, error) {
	size, err := f.checkRegion(r)
	if err != nil {
		return 0, fmt.Errorf("field %q: pack: %w", f.name, err)
	}
	if len(dst) < size {
		return 0, fmt.Errorf("field %q: pack: destination holds %d elements, region %v needs %d",
			f.name, len(dst), r, size)
	}
	if size == 0 {
		return 0, nil
	}
	if r.Rank() > maxOdoRank {
		i := 0
		r.Each(nil, func(p grid.Point) {
			dst[i] = f.data[f.Index(p)]
			i++
		})
		return size, nil
	}
	var count, fs, bs dimVec
	base := f.regionSteps(r, &count, &fs)
	denseSteps(r.Rank(), &count, &bs)
	copyBlock(r.Rank(), &count, dst[:size], &bs, f.data[base:], &fs)
	return size, nil
}

// UnpackFrom writes src into region r of the field in canonical order and
// returns the number of elements consumed. It is an error when src holds
// fewer than r.Size() elements or when r does not lie within the field's
// storage bounds. Extra trailing elements of src are ignored (the caller
// owns the offset arithmetic of coalesced messages). UnpackFrom never
// allocates for regions of rank <= 8.
func (f *Field) UnpackFrom(r grid.Region, src []float64) (int, error) {
	size, err := f.checkRegion(r)
	if err != nil {
		return 0, fmt.Errorf("field %q: unpack: %w", f.name, err)
	}
	if len(src) < size {
		return 0, fmt.Errorf("field %q: unpack: source holds %d elements, region %v needs %d",
			f.name, len(src), r, size)
	}
	if size == 0 {
		return 0, nil
	}
	if r.Rank() > maxOdoRank {
		i := 0
		r.Each(nil, func(p grid.Point) {
			f.data[f.Index(p)] = src[i]
			i++
		})
		return size, nil
	}
	var count, fs, bs dimVec
	base := f.regionSteps(r, &count, &fs)
	denseSteps(r.Rank(), &count, &bs)
	copyBlock(r.Rank(), &count, f.data[base:], &fs, src[:size], &bs)
	return size, nil
}

// CopyRegion copies the elements of region r from src into f. Both fields
// must cover r: a rank mismatch or a region reaching outside either
// field's storage bounds panics before anything is written. The two fields
// may differ in layout and bounds. CopyRegion never allocates for regions
// of rank <= 8.
func (f *Field) CopyRegion(r grid.Region, src *Field) {
	size, err := f.checkRegion(r)
	if err != nil {
		panic(fmt.Sprintf("field %q: copy: %v", f.name, err))
	}
	if _, err := src.checkRegion(r); err != nil {
		panic(fmt.Sprintf("field %q: copy source: %v", src.name, err))
	}
	if size == 0 {
		return
	}
	if r.Rank() > maxOdoRank {
		r.Each(nil, func(p grid.Point) {
			f.data[f.Index(p)] = src.data[src.Index(p)]
		})
		return
	}
	var count, ds, ss dimVec
	dBase := f.regionSteps(r, &count, &ds)
	sBase := src.regionSteps(r, &count, &ss)
	copyBlock(r.Rank(), &count, f.data[dBase:], &ds, src.data[sBase:], &ss)
}

// checkRegion validates that r matches the field's rank and lies within
// its storage bounds, returning the region's size.
func (f *Field) checkRegion(r grid.Region) (int, error) {
	if r.Rank() != f.bounds.Rank() {
		return 0, fmt.Errorf("region %v has rank %d, field has rank %d", r, r.Rank(), f.bounds.Rank())
	}
	size := 1
	for d := 0; d < r.Rank(); d++ {
		dim := r.Dim(d)
		n := dim.Size()
		size *= n
		if n == 0 {
			continue
		}
		b := f.bounds.Dim(d)
		last := dim.Lo + (n-1)*dim.Stride
		if dim.Lo < b.Lo || last > b.Hi {
			return 0, fmt.Errorf("region %v outside bounds %v (dim %d)", r, f.bounds, d)
		}
	}
	return size, nil
}

// regionSteps fills count with region r's points per dimension and st with
// the field's element step along each of r's dimensions, and returns the
// storage offset of r's first point.
func (f *Field) regionSteps(r grid.Region, count, st *dimVec) (base int) {
	for d := 0; d < r.Rank(); d++ {
		dim := r.Dim(d)
		count[d] = dim.Size()
		st[d] = f.strides[d] * dim.Stride
		base += (dim.Lo - f.bounds.Dim(d).Lo) * f.strides[d]
	}
	return base
}

// denseSteps fills st with the steps of a flat buffer holding exactly
// count[0]×…×count[rank-1] points in canonical order.
func denseSteps(rank int, count, st *dimVec) {
	s := 1
	for d := rank - 1; d >= 0; d-- {
		st[d] = s
		s *= count[d]
	}
}

// copyBlock copies a block of count[0]×…×count[rank-1] points (non-empty,
// rank <= maxOdoRank, already bounds-checked on both sides) from src to
// dst, where point (i0, i1, ...) lives at offset sum(ik*step[k]) of each
// slice. Both sides are addressed by step, so the walk order is free: a
// dimension that is unit-stride on both sides is walked innermost and each
// of its runs is a single copy; otherwise the innermost run is a scalar
// strided loop, along dst's unit-stride dimension if it has one (mixed
// layouts: strided loads cost far less than strided stores). It reorders
// count, ds and ss in place.
func copyBlock(rank int, count *dimVec, dst []float64, ds *dimVec, src []float64, ss *dimVec) {
	last := rank - 1
	inner, both := last, false
	for d := 0; d < rank && !both; d++ {
		if ds[d] == 1 {
			inner, both = d, ss[d] == 1
		}
	}
	count[inner], count[last] = count[last], count[inner]
	ds[inner], ds[last] = ds[last], ds[inner]
	ss[inner], ss[last] = ss[last], ss[inner]
	n, dIn, sIn := count[last], ds[last], ss[last]
	var idx dimVec
	do, so := 0, 0
	for {
		if dIn == 1 && sIn == 1 {
			copy(dst[do:do+n], src[so:so+n])
		} else {
			for i, p, q := 0, do, so; i < n; i++ {
				dst[p] = src[q]
				p += dIn
				q += sIn
			}
		}
		d := last - 1
		for ; d >= 0; d-- {
			idx[d]++
			do += ds[d]
			so += ss[d]
			if idx[d] < count[d] {
				break
			}
			idx[d] = 0
			do -= count[d] * ds[d]
			so -= count[d] * ss[d]
		}
		if d < 0 {
			return
		}
	}
}

// PackRegion copies the elements of region r out of the field into a
// fresh slice of exactly r.Size() elements, in canonical order. It panics
// on a region outside the field's bounds (the historical contract).
func (f *Field) PackRegion(r grid.Region) []float64 {
	out := make([]float64, r.Size())
	if _, err := f.PackInto(r, out); err != nil {
		panic(err)
	}
	return out
}

// UnpackRegion writes data into region r of the field in the same
// canonical order used by PackRegion. It panics if data is shorter than
// the region or the region exceeds the field's bounds.
func (f *Field) UnpackRegion(r grid.Region, data []float64) {
	if _, err := f.UnpackFrom(r, data); err != nil {
		panic(err)
	}
}
