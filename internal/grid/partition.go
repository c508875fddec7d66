package grid

import "fmt"

// Split block-partitions a range into p contiguous pieces whose sizes
// differ by at most one (the larger pieces come first), the standard block
// distribution. Pieces may be empty when p exceeds the range size. Only
// stride-1 ranges can be split.
func Split(r Range, p int) ([]Range, error) {
	if p < 1 {
		return nil, fmt.Errorf("grid: split into %d pieces", p)
	}
	if r.Stride != 1 {
		return nil, fmt.Errorf("grid: split of strided range %v", r)
	}
	n := r.Size()
	out := make([]Range, p)
	lo := r.Lo
	for i := 0; i < p; i++ {
		size := n / p
		if i < n%p {
			size++
		}
		out[i] = Range{Lo: lo, Hi: lo + size - 1, Stride: 1}
		lo += size
	}
	return out, nil
}

// SplitRegion block-partitions the region along dimension dim into p
// contiguous sub-regions.
func SplitRegion(g Region, dim, p int) ([]Region, error) {
	if dim < 0 || dim >= g.Rank() {
		return nil, fmt.Errorf("grid: split along dimension %d of rank-%d region", dim, g.Rank())
	}
	parts, err := Split(g.Dim(dim), p)
	if err != nil {
		return nil, err
	}
	out := make([]Region, p)
	for i, part := range parts {
		dims := g.Dims()
		dims[dim] = part
		reg, err := NewRegion(dims...)
		if err != nil {
			return nil, err
		}
		out[i] = reg
	}
	return out, nil
}

// Tiles cuts a range into consecutive tiles of b iterations each (the last
// tile may hold fewer); every tile keeps the range's stride and starts on
// its lattice. b < 1 or b >= size yields a single tile.
func Tiles(r Range, b int) []Range {
	n := r.Size()
	if n == 0 {
		return nil
	}
	if b < 1 || b >= n {
		return []Range{r}
	}
	last := r.Lo + (n-1)*r.Stride // r.Hi may lie off the lattice
	out := make([]Range, 0, (n+b-1)/b)
	for lo := r.Lo; lo <= last; lo += b * r.Stride {
		hi := min(lo+(b-1)*r.Stride, last)
		out = append(out, Range{Lo: lo, Hi: hi, Stride: r.Stride})
	}
	return out
}
