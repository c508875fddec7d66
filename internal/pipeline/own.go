package pipeline

import (
	"fmt"
	"slices"

	"wavefront/internal/comm"
	"wavefront/internal/field"
	"wavefront/internal/grid"
)

// own is what a rank holds of one array, for the whole session: one entry
// of the ownership table Session.bind fills at arm. Session.rank binds by it,
// gather copies back by it, Session.cutSchedules lays messages out by it
// (through plan.payload) and bind decides Run's phase barrier by it.
type own uint8

const (
	// ownField: the caller's field itself. No block writes the array, so no
	// owner could change it.
	ownField own = iota
	// ownRows: a view of the caller's rows over a box that reaches no row
	// another rank's slab holds — an edge rank's halo on its open side is
	// the caller's boundary, and an array no block reads shifted along the
	// wavefront dimension has no halo at all. Nothing to scatter or gather.
	// Ranks write disjoint rows, a neighbour that copies some of these rows
	// has scattered them by the phase barrier, and a message only ever
	// moves slab rows into a copy's halo, so no other rank writes the box
	// and a neighbour reads its rows only after their token (ownRowsHalo).
	ownRows
	// ownRowsHalo: a view of the caller's rows, halo rows included, where
	// another rank's slab holds those halo rows: the upstream rank writes
	// them in place and its token orders the write before this rank's read
	// (see haloByReference). Boundary messages carry none of its rows.
	ownRowsHalo
	// ownCopy: a copy over the rank's box at the runtime's pitch
	// (field.NewLocal), scattered from the caller's field when a Run starts
	// and its slab gathered back when the rank's body returns.
	ownCopy
)

// binding is one (rank, array) entry of the ownership table.
type binding struct {
	own own
	// box is, for a written array, the rank's slab plus the array's halo
	// along the wavefront dimension (clipped to the caller's storage) and
	// the array's full extent elsewhere.
	box    grid.Region
	global *field.Field // the caller's field
	view   *field.Field // global's rows over box (ownRows, ownRowsHalo)
	// slab is, for an ownCopy, the rows of the rank's slab within the
	// caller's storage and the full extent elsewhere: what gather copies
	// back. nil for any other entry and where the slab holds none of them.
	slab *grid.Region
}

// binding returns rank's entry for s.names[i].
func (s *Session) binding(rank, i int) *binding { return &s.binds[rank*len(s.names)+i] }

// writes reports whether some registered block assigns name.
func (s *Session) writes(name string) bool {
	_, ok := slices.BinarySearch(s.written, name)
	return ok
}

// boxes starts the ownership table at arm: it looks up the caller's field of
// every array once and cuts every rank's box of every written array. The
// session keeps these bindings for its life; the caller's arrays must stay
// bound to the same fields.
func (s *Session) boxes() error {
	w := s.cfg.WavefrontDim
	s.binds = make([]binding, s.cfg.Procs*len(s.names))
	for i, name := range s.names {
		g := s.genv.Array(name)
		if g == nil {
			return fmt.Errorf("pipeline: session array %q unbound", name)
		}
		written := s.writes(name)
		h, dims := s.halos[name], g.Bounds().Dims()
		ext := dims[w]
		for rank, slab := range s.slabs {
			b := s.binding(rank, i)
			b.global = g
			if !written {
				continue
			}
			rows := slab.Dim(w)
			dims[w] = grid.NewRange(max(rows.Lo-h.neg[w], ext.Lo), min(rows.Hi+h.pos[w], ext.Hi))
			box, err := grid.NewRegion(dims...)
			if err != nil {
				return err
			}
			b.box = box
		}
	}
	return nil
}

// bind decides every entry of the ownership table, once per tile width: arm
// calls it and so does Retune, because whether a copy would be padded
// depends on the width. Nothing about it is decided per Run.
//
// A written array is a view of the caller's rows where field.View accepts
// the box and field.PadsLocal says a copy would be dense (a padded copy is a
// speed the caller's rows lack), provided either the box reaches no other
// rank's slab (ownRows) or the array is read by reference on every rank
// (ownRowsHalo): sender and receiver must agree on what a message carries,
// so that is a per-array decision, never a per-rank one. Everything else
// written is a copy. Run needs its phase barrier only when some rank copies
// rows another rank's slab holds.
func (s *Session) bind() {
	barrier := false
	var byRef []string // sorted: the arrays whose messages carry no rows
	for i, name := range s.names {
		if !s.writes(name) {
			for rank := range s.slabs {
				s.binding(rank, i).own = ownField
			}
			continue
		}
		g := s.binding(0, i).global
		tile := s.localTile(g)
		shared := s.haloByReference(name)
		for rank := range s.slabs {
			b := s.binding(rank, i)
			b.own, b.view = ownCopy, nil
			reach := s.reaches(rank, b.box)
			if (shared || !reach) && !field.PadsLocal(b.box, g.Layout(), tile) {
				if v, ok := g.View(b.box); ok {
					b.own, b.view = ownRows, v
					if reach {
						b.own = ownRowsHalo
					}
				}
			}
			shared = shared && b.view != nil
		}
		for rank := range s.slabs {
			b := s.binding(rank, i)
			if b.own == ownRowsHalo && !shared {
				b.own, b.view = ownCopy, nil
			}
			b.slab = nil
			if b.own == ownCopy {
				barrier = barrier || s.reaches(rank, b.box)
				if !s.rowsOf(b.box, rank).Empty() {
					slab := s.portionOf(b.box, rank)
					b.slab = &slab
				}
			}
		}
		if shared {
			byRef = append(byRef, name)
		}
	}
	s.phase = nil
	if barrier {
		s.phase = comm.NewSyncBarrier(len(s.slabs))
	}
	for _, pl := range s.plans {
		pl.payload = pl.pipeNames
		if len(byRef) > 0 {
			pl.payload = slices.DeleteFunc(slices.Clone(pl.pipeNames), func(name string) bool {
				_, ok := slices.BinarySearch(byRef, name)
				return ok
			})
		}
	}
}

// haloByReference is the session-wide half of the by-reference rule: name
// may be read, halo rows included, in the caller's rows on every rank when
//   - the session is Run's one-block session, on the in-process transport,
//     with no checkpoint and no fault injection;
//   - name flows through the pipeline, is in neither refresh list, and has
//     no halo on the downstream side along the wavefront dimension.
//
// It is sound there and nowhere else. The upstream rank writes tile t's
// boundary rows and then sends token t; the reader touches those rows only
// after receiving the token its tile needs (execPlan.needUp), so the token
// orders every read after the write. Nobody writes those rows again in the
// Run, and the reader never writes another rank's rows: there is no unpack,
// no refresh, and no halo on the downstream side. Elsewhere it is not: a
// session may Exec the block again while its link capacity lets upstream
// run a sweep ahead, a restore would write the whole view, a neighbour's
// rows included, and a socket stands for separate processes — those keep
// their payloads.
func (s *Session) haloByReference(name string) bool {
	if !s.oneShot || s.cfg.Transport.Kind != comm.TransportChan || s.cfg.Checkpoint != nil || s.cfg.Faults != nil {
		return false
	}
	for _, pl := range s.plans {
		if pl.pipeArrays[name] == 0 || slices.Contains(pl.refresh[sideNeg], name) || slices.Contains(pl.refresh[sidePos], name) {
			return false
		}
		h := pl.halo[name]
		down := h.pos[pl.wDim]
		if pl.an.Loop.Dirs[pl.wDim] == grid.HighToLow {
			down = h.neg[pl.wDim]
		}
		if down > 0 {
			return false
		}
	}
	return true
}

// reaches reports whether box, along the wavefront dimension, holds a row of
// a slab other than rank's.
func (s *Session) reaches(rank int, box grid.Region) bool {
	w := s.cfg.WavefrontDim
	rows := box.Dim(w)
	for i, slab := range s.slabs {
		if i != rank && rows.Lo <= slab.Dim(w).Hi && slab.Dim(w).Lo <= rows.Hi {
			return true
		}
	}
	return false
}
