package pipeline

// Checkpoint/restart for the pipelined runtime. The comm layer owns message
// replay and send suppression (comm/recovery.go); this file owns the state
// half: cutting a rank's local fields, link cursors, tag counters and
// scalar state into a ckpt.Snapshot at a cut point, and rebuilding a
// restarted rank from its latest snapshot.
//
// A rank runs an arbitrary SPMD body, so there are two kinds of cut point.
// The start of a leaf operation — an Exec of a registered block, a Reduce,
// a Barrier — is one: every rank executes the same body, so equal
// operation counts identify the same boundary on every rank. The top of a
// tile inside a static-schedule wavefront sweep, before the tile's
// receives, is the other: there the portion is exactly "tiles < t
// computed, recvd messages consumed", the sweep's halo exchange is
// complete and its arrays marked clean, and the tag counters say which
// boundary messages have gone each way. Mid-tile is never safe: the portion
// mixes updated and stale elements along the wavefront dimension and the
// halo corresponds to no received-message prefix. At either kind of cut
// the snapshot plus the comm layer's link cursors pins the rank's progress
// down completely.
//
// A restarted rank cannot resume the user's closure mid-flight; instead it
// re-runs the body from the top and fast-forwards: operations below the
// snapshot's index are skipped (their effects are already in the restored
// state), with Reduce results replayed from a log so the body sees the
// same values without re-communicating. Real execution resumes at the
// snapshot's operation — at its start, or for a cut inside a sweep at the
// snapshot's tile with the sweep's preamble skipped — where send
// suppression and inbound replay make the message stream
// indistinguishable from an uninterrupted run.

import (
	"fmt"
	"sort"
	"sync/atomic"

	"wavefront/internal/ckpt"
	"wavefront/internal/comm"
	"wavefront/internal/field"
	"wavefront/internal/trace"
)

// CheckpointConfig enables checkpointing and crash recovery.
type CheckpointConfig struct {
	// Every is the snapshot interval in cut points: the start of each leaf
	// operation (Exec of a registered block, Reduce, Barrier) and the top
	// of each tile after the first inside a static-schedule wavefront sweep
	// (the first tile's cut is its operation's start; a task-DAG sweep runs
	// its portion in one piece and has no other). A rank snapshots at its
	// first cut point (the mandatory anchor — restart is impossible without
	// one) and whenever Every cut points have passed since its last
	// snapshot, so a one-block run snapshots before tile 0 and before every
	// Every-th tile after it. <= 0 defaults to 1.
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
	pending []atomic.Bool   // pending[r]: rank r's next body invocation is a restart
	scratch []ckpt.Snapshot // per-rank reusable snapshot (Save deep-copies)
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
		pending: make([]atomic.Bool, p),
		scratch: make([]ckpt.Snapshot, p),
		pm:      pm,
	}
}

// recovery builds the comm-layer bridge: cursors come from the rank's
// latest snapshot, and a granted restart marks the rank pending so its
// next body invocation restores instead of re-scattering (by the time a
// crash can occur, other ranks' gathers may already have overwritten the
// globals it scattered from, so re-scattering is never sound).
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

// snapFields describes locals, in the order of names, as snapshot fields
// reusing dst's backing (the Dims slices included), and returns them with
// their total element count. Data aliases the fields' live storage instead
// of copying it: Store.Save deep-copies and has finished with the snapshot
// when it returns, and the caller is the only goroutine that writes these
// fields at a cut point (task-DAG workers are parked between runs), so a
// copy here would only be made to be copied again.
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

// Tag prefixes for the snapshot's Names/Vals pairs: rank-local scalars,
// dirty and written array marks, and the reduce log (in operation order).
// restore refuses any other tag.
const (
	ckTagScalar = "s:"
	ckTagDirty  = "d:"
	ckTagWrote  = "w:"
	ckTagReduce = "r:"
)

// A dirty mark's snapshot value carries its sides without a new field: 1
// means both, one side alone is 1 plus its bit (2 = neg, 3 = pos). Marks
// must restore exactly: a restarted rank's live peers still hold theirs,
// and refresh messages are skipped by marks every rank agrees on. (1 is
// also the only value a snapshot from before marks had sides could hold.
// Reading it as both is sound only when every rank restores from such a
// snapshot; the runtime restores single ranks, and only from snapshots the
// Run in flight wrote, so every 1 it reads is a both it wrote.)
func dirtyMarkVal(d uint8) float64 {
	if d == dirtyBoth {
		return 1
	}
	return float64(1 + d)
}

func dirtyMarkSides(v float64) (uint8, bool) {
	switch v {
	case 1:
		return dirtyBoth, true
	case float64(1 + dirtyNeg):
		return dirtyNeg, true
	case float64(1 + dirtyPos):
		return dirtyPos, true
	}
	return 0, false
}

// ReadOnlySnapshotError refuses a snapshot that carries data for an array no
// registered block writes: a rank holds no copy of such an array — it reads
// the caller's field — and restoring into that would change a global the
// session promises to leave alone.
type ReadOnlySnapshotError struct {
	Rank  int
	Array string
}

func (e *ReadOnlySnapshotError) Error() string {
	return fmt.Sprintf("pipeline: rank %d: snapshot carries array %q, which no registered block writes",
		e.Rank, e.Array)
}

// ckInts is the count of fixed counters at the head of a snapshot's Ints:
// operation, tile, boundary messages received, cut index, sweeps begun and
// the session's tile width (the tile and message counts mean nothing at
// another, so restore refuses a snapshot cut at one); the per-peer send and
// receive tag counters follow.
const ckInts = 6

// ckOp advances the rank's leaf-operation counter under checkpointing.
// It returns skip=true while fast-forwarding through operations already
// covered by the restored snapshot; otherwise the operation's start is a
// cut point. With checkpointing off it is a single nil check.
func (r *Rank) ckOp() (skip bool, err error) {
	ck := r.sess.ck
	if ck == nil {
		return false, nil
	}
	op := r.ops
	r.ops++
	switch {
	case op < r.ffOp:
		return true, nil
	case op == r.ffOp && r.ffTile > 0:
		// The restored snapshot was cut inside this operation's sweep: its
		// start is behind the snapshot and was counted before it.
		return false, nil
	}
	return false, r.cut(ck, 0, 0)
}

// cut passes one cut point — tile 0 for an operation's start, else the tile
// of the running sweep about to begin, with recvd upstream boundary
// messages consumed — and snapshots when one is due: at the rank's first
// cut point and whenever Every have passed since its last snapshot.
func (r *Rank) cut(ck *ckptRuntime, tile, recvd int) error {
	c := r.cuts
	r.cuts++
	if c != 0 && c-r.lastSnap < ck.every {
		return nil
	}
	return r.snapshot(ck, c, tile, recvd)
}

// snapshot cuts the rank's state at cut point c and saves it, then trims
// the comm layer's retention below the snapshot's receive cursors. Skipped
// while post-restart send suppression is still draining — the link counters
// would overstate the restarted incarnation's logical progress (see
// Endpoint.RecoveryQuiescent).
func (r *Rank) snapshot(ck *ckptRuntime, c, tile, recvd int) error {
	if !r.e.RecoveryQuiescent() {
		return nil
	}
	o := r.obs()
	t0 := o.Now()
	p := r.sess.cfg.Procs
	op := r.ops - 1
	s := &ck.scratch[r.id]
	// Wave is the 1-based sweep the cut lies inside (tile > 0: waveRuns
	// already counts it) or before.
	s.Rank, s.Wave = r.id, r.waveRuns
	if tile == 0 {
		s.Wave++
	}
	if cap(s.RecvCursor) < p {
		s.RecvCursor = make([]int64, p)
		s.SendCursor = make([]int64, p)
	}
	s.RecvCursor, s.SendCursor = s.RecvCursor[:p], s.SendCursor[:p]
	r.e.Cursors(s.RecvCursor, s.SendCursor)

	s.Ints = append(s.Ints[:0], int64(op), int64(tile), int64(recvd), int64(c), int64(r.waveRuns), int64(r.sess.cfg.Block))
	for _, v := range r.sendSeq {
		s.Ints = append(s.Ints, int64(v))
	}
	for _, v := range r.recvSeq {
		s.Ints = append(s.Ints, int64(v))
	}
	s.Names, s.Vals = s.Names[:0], s.Vals[:0]
	scalars := make([]string, 0, len(r.lenv.scalars))
	for name := range r.lenv.scalars {
		scalars = append(scalars, name)
	}
	sort.Strings(scalars)
	for _, name := range scalars {
		s.Names = append(s.Names, ckTagScalar+name)
		s.Vals = append(s.Vals, r.lenv.scalars[name])
	}
	// Dirty and written marks are only ever set on arrays some block
	// writes, whose names the session sorted once.
	for _, name := range r.sess.written {
		if d := r.dirty[name]; d != 0 {
			s.Names = append(s.Names, ckTagDirty+name)
			s.Vals = append(s.Vals, dirtyMarkVal(d))
		}
	}
	for _, name := range r.sess.written {
		if r.wrote[name] {
			s.Names = append(s.Names, ckTagWrote+name)
			s.Vals = append(s.Vals, 1)
		}
	}
	for _, v := range r.reduceLog {
		s.Names = append(s.Names, ckTagReduce)
		s.Vals = append(s.Vals, v)
	}

	var elems int
	// Only what some block writes can differ from the globals: a restarted
	// rank binds the read-only arrays from them again (see Session.rank).
	s.Fields, elems = snapFields(s.Fields, r.sess.written, r.locals)
	if err := ck.store.Save(s); err != nil {
		return fmt.Errorf("pipeline: rank %d: checkpoint at op %d tile %d: %w", r.id, op, tile, err)
	}
	r.e.TrimRetained(s.RecvCursor)
	r.lastSnap = c
	if o != nil {
		ev := trace.Ev(trace.KindCkpt, r.id, t0, o.Now())
		ev.Wave, ev.Tile, ev.Elems = s.Wave-1, tile, elems
		o.Emit(ev)
	}
	return nil
}

// restore rebuilds a restarted rank from its latest snapshot: array data is
// copied into the locals of the written arrays — fresh copies, or views of
// the caller's rows that no other rank reads or writes (geometry and the
// choice between the two are pure functions of the session config, so
// bounds and lengths always agree; the read-only arrays Session.rank bound are
// never written, by a snapshot either),
// counters and tagged state overwrite the rank's zero state, and the
// fast-forward horizon is set to the snapshot's operation and tile.
func (r *Rank) restore(ck *ckptRuntime) error {
	o := r.obs()
	t0 := o.Now()
	snap, err := ck.store.Latest(r.id)
	if err != nil {
		return err
	}
	if snap == nil {
		return fmt.Errorf("pipeline: rank %d restarted without a snapshot", r.id)
	}
	p := r.sess.cfg.Procs
	if len(snap.Ints) != ckInts+2*p {
		return fmt.Errorf("pipeline: rank %d: snapshot holds %d counters, want %d",
			r.id, len(snap.Ints), ckInts+2*p)
	}
	if w := int(snap.Ints[5]); w != r.sess.cfg.Block {
		return fmt.Errorf("pipeline: rank %d: snapshot was cut at tile width %d, session runs at %d",
			r.id, w, r.sess.cfg.Block)
	}
	written := r.sess.written
	if len(snap.Fields) != len(written) {
		return fmt.Errorf("pipeline: rank %d: snapshot holds %d arrays, session writes %d",
			r.id, len(snap.Fields), len(written))
	}
	for i := range snap.Fields {
		fs := &snap.Fields[i]
		f := r.locals[fs.Name]
		if f == nil {
			return fmt.Errorf("pipeline: snapshot names unknown array %q", fs.Name)
		}
		if !r.sess.writes(fs.Name) {
			return &ReadOnlySnapshotError{Rank: r.id, Array: fs.Name}
		}
		if len(fs.Data) != len(f.Data()) {
			return fmt.Errorf("pipeline: snapshot array %q holds %d elements, locals need %d",
				fs.Name, len(fs.Data), len(f.Data()))
		}
		copy(f.Data(), fs.Data)
	}
	r.ops = 0
	r.ffOp, r.ffTile, r.ffRecvd = int(snap.Ints[0]), int(snap.Ints[1]), int(snap.Ints[2])
	r.cuts, r.lastSnap = int(snap.Ints[3]), int(snap.Ints[3])
	r.waveRuns = int(snap.Ints[4])
	for i := 0; i < p; i++ {
		r.sendSeq[i] = int(snap.Ints[ckInts+i])
		r.recvSeq[i] = int(snap.Ints[ckInts+p+i])
	}
	r.reduceLog = r.reduceLog[:0]
	r.reduceIdx = 0
	for i, name := range snap.Names {
		v := snap.Vals[i]
		switch {
		case len(name) < 2:
			return fmt.Errorf("pipeline: snapshot carries untagged entry %q", name)
		case name[:2] == ckTagScalar:
			if r.lenv.scalars == nil {
				r.lenv.scalars = map[string]float64{}
			}
			r.lenv.scalars[name[2:]] = v
		case name[:2] == ckTagDirty:
			d, ok := dirtyMarkSides(v)
			if !ok {
				return fmt.Errorf("pipeline: snapshot dirty mark %q carries unknown value %g", name[2:], v)
			}
			r.dirty[name[2:]] = d
		case name[:2] == ckTagWrote:
			r.wrote[name[2:]] = true
		case name[:2] == ckTagReduce:
			r.reduceLog = append(r.reduceLog, v)
		default:
			return fmt.Errorf("pipeline: snapshot carries unknown tag %q", name[:2])
		}
	}
	if o != nil {
		ev := trace.Ev(trace.KindRestore, r.id, t0, o.Now())
		ev.Wave, ev.Tile, ev.Seq = snap.Wave-1, r.ffTile, int(snap.Seq)
		o.Emit(ev)
	}
	return nil
}
