package pipeline

// Wave-boundary checkpoint/restart for the pipelined runtime. The comm
// layer owns message replay and send suppression (comm/recovery.go); this
// file owns the state half: cutting a rank's portion fields, link cursors,
// and scheduler counters into a ckpt.Snapshot at wave boundaries, and
// rebuilding a restarted rank's locals from its latest snapshot.
//
// Wave boundaries are the only safe cut points. Mid-tile, the portion
// mixes updated and stale elements along the wavefront dimension (the UDV
// dependence reach spans the whole tile) and the halo does not correspond
// to any received-message prefix; at a boundary — before tile t's receives
// — the portion state is exactly "tiles < t computed, recvd messages
// consumed", which the link cursors pin down completely.

import (
	"fmt"
	"sort"
	"sync/atomic"

	"wavefront/internal/ckpt"
	"wavefront/internal/comm"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/trace"
)

// CheckpointConfig enables wave-boundary checkpointing and crash recovery.
type CheckpointConfig struct {
	// Every is the snapshot interval in waves (tiles): a snapshot before
	// tile 0 (the mandatory anchor — restart is impossible without one) and
	// before every Every-th tile after it. <= 0 defaults to 1.
	Every int
	// Store persists the snapshots; nil selects a fresh in-memory store.
	Store ckpt.Store
	// MaxRestarts bounds total rank restarts per run (default 3).
	MaxRestarts int
}

func (c *CheckpointConfig) every() int {
	if c.Every <= 0 {
		return 1
	}
	return c.Every
}

// ckptRuntime is one run's resolved checkpoint state.
type ckptRuntime struct {
	store   ckpt.Store
	every   int
	p       int
	pending []atomic.Bool   // pending[r]: rank r's next body invocation is a restart
	scratch []ckpt.Snapshot // per-rank reusable snapshot (Save deep-copies)
	names   [][]string      // per-rank sorted local-array names, built at the first snapshot
	pm      *pipeMetrics
	// restarts counts granted rank restarts this run; the flight recorder
	// treats any nonzero count as a structured failure worth a bundle.
	restarts atomic.Int64
	// storeErr is the first snapshot-store failure that made the comm
	// layer refuse a restart (see refused).
	storeErr atomic.Pointer[error]
}

func newCkptRuntime(cfg *CheckpointConfig, p int, pm *pipeMetrics) *ckptRuntime {
	st := cfg.Store
	if st == nil {
		st = ckpt.NewMemStore()
	}
	return &ckptRuntime{
		store:   st,
		every:   cfg.every(),
		p:       p,
		pending: make([]atomic.Bool, p),
		scratch: make([]ckpt.Snapshot, p),
		names:   make([][]string, p),
		pm:      pm,
	}
}

// recovery builds the comm-layer bridge: cursors come from the rank's
// latest snapshot, and a granted restart marks the rank pending so its
// next body invocation restores instead of re-scattering.
func (ck *ckptRuntime) recovery(maxRestarts int) *comm.Recovery {
	return &comm.Recovery{
		MaxRestarts: maxRestarts,
		Cursors: func(rank int) (recv, send []int64, ok bool) {
			s, err := ck.store.Latest(rank)
			if err != nil {
				err = fmt.Errorf("pipeline: rank %d: restart refused: %w", rank, err)
				ck.storeErr.CompareAndSwap(nil, &err)
			}
			if err != nil || s == nil {
				return nil, nil, false
			}
			return s.RecvCursor, s.SendCursor, true
		},
		OnRestart: func(rank, attempt, replayed int) {
			ck.pending[rank].Store(true)
			ck.restarts.Add(1)
			if ck.pm != nil {
				ck.pm.ckptReplayed.Add(rank, int64(replayed))
			}
		},
	}
}

// refused folds in the store failure, if any, that made a restart
// impossible. The comm layer only learns that no cursors were available and
// fails the run with the crash that asked for the restart; the reason —
// a snapshot that fails its seal, a truncated or old-format file — is
// what the caller has to act on, so it must be in the error too.
func (ck *ckptRuntime) refused(runErr error) error {
	if ck == nil || runErr == nil {
		return runErr
	}
	if se := ck.storeErr.Load(); se != nil {
		return fmt.Errorf("%w; %w", runErr, *se)
	}
	return runErr
}

// shouldSnap reports whether a snapshot is due before tile t. Tile 0 is
// mandatory (the restore anchor: by the time a crash can occur, upstream
// gathers may already have overwritten the globals this rank scattered
// from, so re-scattering is never sound).
func (ck *ckptRuntime) shouldSnap(t int) bool {
	return t == 0 || t%ck.every == 0
}

// snapshot cuts rank's state before tile wave and saves it, then trims the
// comm layer's retention below the snapshot's receive cursors. recvd is
// the count of upstream boundary messages consumed so far. Skipped while
// post-restart send suppression is draining (see Endpoint.RecoveryQuiescent).
func (ck *ckptRuntime) snapshot(e *comm.Endpoint, rank, wave, recvd int,
	locals map[string]*field.Field, tr *trace.Recorder) error {
	if !e.RecoveryQuiescent() {
		return nil
	}
	t0 := tr.Now()
	s := &ck.scratch[rank]
	s.Rank, s.Wave = rank, wave
	if cap(s.RecvCursor) < ck.p {
		s.RecvCursor = make([]int64, ck.p)
		s.SendCursor = make([]int64, ck.p)
	}
	s.RecvCursor, s.SendCursor = s.RecvCursor[:ck.p], s.SendCursor[:ck.p]
	e.Cursors(s.RecvCursor, s.SendCursor)
	s.Ints = append(s.Ints[:0], int64(recvd))
	s.Names, s.Vals = s.Names[:0], s.Vals[:0]

	// A rank's locals keep their names for the whole run (a restart
	// rebuilds the same set from the snapshot), so the canonical order is
	// worked out once.
	names := ck.names[rank]
	if names == nil {
		names = make([]string, 0, len(locals))
		for name := range locals {
			names = append(names, name)
		}
		sort.Strings(names)
		ck.names[rank] = names
	}
	var elems int
	s.Fields, elems = snapFields(s.Fields, names, locals)
	if err := ck.store.Save(s); err != nil {
		return fmt.Errorf("pipeline: rank %d: checkpoint at wave %d: %w", rank, wave, err)
	}
	e.TrimRetained(s.RecvCursor)
	if ck.pm != nil {
		ck.pm.ckptSnaps.Add(rank, 1)
	}
	if tr != nil {
		ev := trace.Ev(trace.KindCkpt, rank, t0, tr.Now())
		ev.Wave, ev.Elems = wave, elems
		tr.Record(ev)
	}
	return nil
}

// snapFields describes locals, in the order of names, as snapshot fields
// reusing dst's backing (the Dims slices included), and returns them with
// their total element count. Data aliases the fields' live storage instead
// of copying it: Store.Save deep-copies and has finished with the snapshot
// when it returns, and the caller is the only goroutine that writes these
// fields at a wave boundary (task-DAG workers are parked between runs), so
// a copy here would only be made to be copied again.
func snapFields(dst []ckpt.FieldSnap, names []string, locals map[string]*field.Field) ([]ckpt.FieldSnap, int) {
	if cap(dst) < len(names) {
		dst = make([]ckpt.FieldSnap, len(names))
	}
	dst = dst[:len(names)]
	elems := 0
	for i, name := range names {
		f, fs := locals[name], &dst[i]
		fs.Name = name
		fs.Layout = int(f.Layout())
		fs.Dims = fs.Dims[:0]
		for d, b := 0, f.Bounds(); d < b.Rank(); d++ {
			fs.Dims = append(fs.Dims, b.Dim(d).Lo, b.Dim(d).Hi)
		}
		fs.Data = f.Data()
		elems += len(fs.Data)
	}
	return dst, elems
}

// restore rebuilds rank's locals and scheduler counters from its latest
// snapshot. Returns the snapshot for the caller to resume from.
func (ck *ckptRuntime) restore(rank int, tr *trace.Recorder) (*ckpt.Snapshot, map[string]*field.Field, error) {
	t0 := tr.Now()
	snap, err := ck.store.Latest(rank)
	if err != nil {
		return nil, nil, err
	}
	if snap == nil {
		return nil, nil, fmt.Errorf("pipeline: rank %d restarted without a snapshot", rank)
	}
	locals, err := localsFromSnapshot(snap)
	if err != nil {
		return nil, nil, err
	}
	if ck.pm != nil {
		ck.pm.ckptRestores.Add(rank, 1)
	}
	if tr != nil {
		ev := trace.Ev(trace.KindRestore, rank, t0, tr.Now())
		ev.Wave, ev.Seq = snap.Wave, int(snap.Seq)
		tr.Record(ev)
	}
	return snap, locals, nil
}

// localsFromSnapshot reconstructs the rank's local fields byte-for-byte
// from the snapshot's field captures.
func localsFromSnapshot(snap *ckpt.Snapshot) (map[string]*field.Field, error) {
	locals := make(map[string]*field.Field, len(snap.Fields))
	for i := range snap.Fields {
		fs := &snap.Fields[i]
		dims := make([]grid.Range, len(fs.Dims)/2)
		for d := range dims {
			dims[d] = grid.NewRange(fs.Dims[2*d], fs.Dims[2*d+1])
		}
		bounds, err := grid.NewRegion(dims...)
		if err != nil {
			return nil, fmt.Errorf("pipeline: snapshot field %q: %w", fs.Name, err)
		}
		f, err := field.New(fs.Name, bounds, field.Layout(fs.Layout))
		if err != nil {
			return nil, fmt.Errorf("pipeline: snapshot field %q: %w", fs.Name, err)
		}
		if len(fs.Data) != len(f.Data()) {
			return nil, fmt.Errorf("pipeline: snapshot field %q holds %d elements, bounds need %d",
				fs.Name, len(fs.Data), len(f.Data()))
		}
		copy(f.Data(), fs.Data)
		locals[fs.Name] = f
	}
	return locals, nil
}
