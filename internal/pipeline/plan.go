package pipeline

import (
	"fmt"
	"sort"

	"wavefront/internal/grid"
	"wavefront/internal/scan"
)

// newPlan derives b's decomposition along wDim over the given slabs from
// its analysis. tDim < 0 picks the tile dimension: the first parallel
// dimension, else the first dimension other than wDim.
func newPlan(b *scan.Block, an *scan.Analysis, slabs []grid.Region, wDim, tDim, block int) (*plan, error) {
	if tDim < 0 {
		for _, d := range an.Class.ParallelDims() {
			if d != wDim {
				tDim = d
				break
			}
		}
	}
	if tDim < 0 {
		for d := 0; d < b.Region.Rank(); d++ {
			if d != wDim {
				tDim = d
				break
			}
		}
	}
	pl := &plan{an: an, region: b.Region, block: block, wDim: wDim, tDim: tDim,
		pipeArrays: map[string]int{}, written: map[string]bool{}, scalars: an.Scalars()}
	if err := pl.analyzeRefs(b, slabs); err != nil {
		return nil, err
	}
	pl.tiles = pl.cutTiles()
	pl.payload = pl.pipeNames
	return pl, nil
}

// analyzeRefs walks every array reference, computing per-array halo
// requirements, the set of arrays whose boundary values must flow through
// the pipeline, the forward reach of cross-boundary reads along the tile
// dimension, and — per side of the wavefront dimension — the arrays the
// block reads from exchanged halo values (refresh).
//
// A reference shifted along the wavefront dimension reads the halo on the
// side it points to, and what it finds there is what the last halo
// exchange put there — with one exception: a true-dependence read of the
// upstream side gets the values this block writes, and those arrive as
// wave messages (pipeArrays). The exception covers only points inside the
// block's region. A true-dependence read still needs the exchanged halo
// where it leaves the region across a slab boundary: sideways, when it is
// also shifted in another dimension (the edge columns of a diagonal read),
// and at the sweep's entry, when a slab boundary separates the region's
// first rows from the rows before them (LU's pivot-row broadcast starts
// one row below the pivot, which may be the last row of the slab above).
func (pl *plan) analyzeRefs(b *scan.Block, slabs []grid.Region) error {
	rank := b.Region.Rank()
	writers := b.Writers()
	pl.halo = map[string]haloSpec{}
	travelLow := pl.an.Loop.Dirs[pl.wDim] == grid.LowToHigh
	pl.chooseTileTravel()
	tileLow := pl.tileTravel == grid.LowToHigh
	antiUpstream := map[string]bool{}
	unshifted := make(grid.Direction, rank)
	exchanged := func(name string, sw int) {
		pl.refresh[sideOf(sw)] = append(pl.refresh[sideOf(sw)], name)
	}

	grow := func(name string, shift grid.Direction) {
		h, ok := pl.halo[name]
		if !ok {
			h = haloSpec{neg: make([]int, rank), pos: make([]int, rank)}
		}
		for d, c := range shift {
			if -c > h.neg[d] {
				h.neg[d] = -c
			}
			if c > h.pos[d] {
				h.pos[d] = c
			}
		}
		pl.halo[name] = h
	}

	for si, s := range b.Stmts {
		pl.written[s.LHS.Name] = true
		if _, ok := pl.halo[s.LHS.Name]; !ok {
			pl.halo[s.LHS.Name] = haloSpec{neg: make([]int, rank), pos: make([]int, rank)}
		}
		for _, r := range pl.an.Refs(si) {
			shift := r.Shift
			if shift == nil {
				shift = unshifted
			}
			grow(r.Name, shift)
			sw := shift[pl.wDim]
			ws, written := writers[r.Name]
			if !written {
				if sw != 0 {
					exchanged(r.Name, sw)
				}
				continue
			}
			trueDep := r.Primed
			if !trueDep {
				for _, w := range ws {
					if w < si {
						trueDep = true
						break
					}
				}
			}
			upstream := (travelLow && sw < 0) || (!travelLow && sw > 0)
			downstream := (travelLow && sw > 0) || (!travelLow && sw < 0)
			if sw != 0 && !(trueDep && upstream) {
				exchanged(r.Name, sw)
			}
			switch {
			case trueDep && upstream:
				depth := sw
				if depth < 0 {
					depth = -depth
				}
				if depth > pl.pipeArrays[r.Name] {
					pl.pipeArrays[r.Name] = depth
				}
				if leavesRegionSideways(shift, pl.wDim) || pl.entryCrossesSlab(slabs, depth) {
					exchanged(r.Name, sw)
				}
				if pl.tDim >= 0 {
					ct := shift[pl.tDim]
					fwd := ct
					if !tileLow {
						fwd = -ct
					}
					if fwd > pl.maxFwd {
						pl.maxFwd = fwd
					}
				}
			case trueDep && downstream:
				return fmt.Errorf("%w: reference %s carries a true dependence against the wavefront direction across the processor boundary", ErrUnsupported, r)
			case !trueDep && upstream:
				antiUpstream[r.Name] = true
			}
		}
	}
	for name := range antiUpstream {
		if pl.pipeArrays[name] > 0 {
			return fmt.Errorf("%w: array %q is read across the upstream boundary both primed and unprimed; the runtime keeps a single halo version", ErrUnsupported, name)
		}
	}
	pl.pipeNames = make([]string, 0, len(pl.pipeArrays))
	for name := range pl.pipeArrays {
		pl.pipeNames = append(pl.pipeNames, name)
	}
	sort.Strings(pl.pipeNames)
	sortSides(&pl.refresh)
	return nil
}

// leavesRegionSideways reports whether a reference shifted along the
// wavefront dimension is shifted in another dimension too: at the region's
// edge in that dimension it then reads a point the block does not write.
func leavesRegionSideways(shift grid.Direction, wDim int) bool {
	for d, c := range shift {
		if d != wDim && c != 0 {
			return true
		}
	}
	return false
}

// entryCrossesSlab reports whether the first depth rows of the sweep read,
// depth rows upstream of themselves, rows of another rank's slab that lie
// outside the region. Every rank evaluates it over the same slabs, so all
// ranks agree. (A slab boundary inside the region never qualifies: adopt
// refuses portions thinner than the dependence depth, so a read that
// crosses such a boundary stays inside the upstream portion.)
func (pl *plan) entryCrossesSlab(slabs []grid.Region, depth int) bool {
	ext := pl.region.Dim(pl.wDim)
	if pl.an.Loop.Dirs[pl.wDim] == grid.LowToHigh {
		for _, s := range slabs[1:] {
			if lo := s.Dim(pl.wDim).Lo; lo > ext.Lo-depth && lo <= ext.Lo {
				return true
			}
		}
		return false
	}
	for _, s := range slabs[:len(slabs)-1] {
		if hi := s.Dim(pl.wDim).Hi; hi >= ext.Hi && hi < ext.Hi+depth {
			return true
		}
	}
	return false
}

// chooseTileTravel picks the order in which tiles execute (and messages
// flow) along the tile dimension. Tiling is a loop transformation: running
// tile τ's rows before tile τ+1's rows is only legal when every dependence
// distance points to the same or an earlier tile. A low-to-high traversal
// requires every UDV's tile-dimension component to be >= 0, high-to-low
// requires <= 0; when both signs occur no tile width is safe and the plan
// falls back to a single tile (the naive schedule, which is always legal
// because the whole slab then executes in the derived loop order).
func (pl *plan) chooseTileTravel() {
	if pl.tDim < 0 {
		pl.tileTravel = grid.LowToHigh
		return
	}
	okLow, okHigh := true, true
	for _, u := range pl.an.UDVs {
		if u.Zero() {
			continue
		}
		c := u.Dist[pl.tDim]
		if c < 0 {
			okLow = false
		}
		if c > 0 {
			okHigh = false
		}
	}
	switch {
	case okLow && okHigh:
		pl.tileTravel = pl.an.Loop.Dirs[pl.tDim] // unconstrained: match the loop
	case okLow:
		pl.tileTravel = grid.LowToHigh
	case okHigh:
		pl.tileTravel = grid.HighToLow
	default:
		pl.noTiling = true
		pl.tileTravel = pl.an.Loop.Dirs[pl.tDim]
	}
}

// maxPipeDepth returns the deepest pipelined halo.
func (pl *plan) maxPipeDepth() int {
	maxDepth := 0
	for _, d := range pl.pipeArrays {
		if d > maxDepth {
			maxDepth = d
		}
	}
	return maxDepth
}

// cutTiles cuts the tile dimension into traversal-ordered tiles of width
// pl.block.
func (pl *plan) cutTiles() []grid.Range {
	if pl.tDim < 0 {
		return nil
	}
	width := pl.block
	if pl.noTiling {
		width = 0 // single tile: the only legal granularity
	}
	tiles := grid.Tiles(pl.region.Dim(pl.tDim), width)
	if pl.tileTravel == grid.HighToLow {
		for i, j := 0, len(tiles)-1; i < j; i, j = i+1, j-1 {
			tiles[i], tiles[j] = tiles[j], tiles[i]
		}
	}
	return tiles
}

// steps returns the number of pipeline steps the tiling implies.
func (pl *plan) steps() int {
	if len(pl.tiles) == 0 {
		return 1
	}
	return len(pl.tiles)
}

// neededUpstream returns the index of the last upstream message a rank
// must hold before computing tile t: with no forward reach it is t;
// diagonal cross-boundary reads extend it by the forward reach in
// traversal-position terms.
func (pl *plan) neededUpstream(t int) int {
	tiles := pl.tiles
	if pl.maxFwd == 0 || len(tiles) == 0 {
		return t
	}
	// Traversal-position of the end of tile t, plus the forward reach,
	// locates the furthest column read; find the tile containing it.
	end := -1
	for k := 0; k <= t; k++ {
		end += tiles[k].Size()
	}
	target := end + pl.maxFwd
	cum := 0
	for k := range tiles {
		cum += tiles[k].Size()
		if target < cum {
			return k
		}
	}
	return len(tiles) - 1
}

// tileRegion restricts slab L to tile t.
func (pl *plan) tileRegion(L grid.Region, t int) grid.Region {
	if len(pl.tiles) == 0 {
		return L
	}
	dims := L.Dims()
	dims[pl.tDim] = pl.tiles[t]
	return grid.MustRegion(dims...)
}

// boundaryRegion returns, in global coordinates, the rows array `name`
// must ship downstream after tile t: the sender slab's last depth rows in
// travel order, restricted to tile t along the tile dimension (other
// dimensions span the slab).
func (pl *plan) boundaryRegion(L grid.Region, name string, t int) grid.Region {
	depth := pl.pipeArrays[name]
	dims := L.Dims()
	w := dims[pl.wDim]
	if pl.an.Loop.Dirs[pl.wDim] == grid.LowToHigh {
		dims[pl.wDim] = grid.NewRange(w.Hi-depth+1, w.Hi)
	} else {
		dims[pl.wDim] = grid.NewRange(w.Lo, w.Lo+depth-1)
	}
	if len(pl.tiles) > 0 {
		dims[pl.tDim] = pl.tiles[t]
	}
	return grid.MustRegion(dims...)
}
