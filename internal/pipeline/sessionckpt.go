package pipeline

// Session-level checkpoint/restart. Unlike the single-block pipeline path
// — which snapshots at wave boundaries inside one sweep — a session runs
// an arbitrary SPMD body, so the cut points are leaf-operation boundaries:
// before an Exec of a registered block, a Reduce, or a Barrier. Every rank
// executes the same body, so equal operation counts identify the same
// boundary on every rank, and a snapshot cut before operation k plus the
// comm layer's link cursors pins the rank's progress down completely.
//
// A restarted rank cannot resume the user's closure mid-flight; instead it
// re-runs the body from the top and fast-forwards: operations below the
// snapshot's index are skipped (their effects are already in the restored
// state), with Reduce results replayed from a log so the body sees the
// same values without re-communicating. Real execution resumes exactly at
// the snapshot boundary, where send suppression and inbound replay make
// the message stream indistinguishable from an uninterrupted run.

import (
	"fmt"
	"sort"

	"wavefront/internal/trace"
)

// Tag prefixes for the snapshot's Names/Vals pairs: rank-local scalars,
// kernel-captured scalars, dirty and written array marks, and the reduce
// log (in operation order).
const (
	ckTagScalar   = "s:"
	ckTagCaptured = "c:"
	ckTagDirty    = "d:"
	ckTagWrote    = "w:"
	ckTagReduce   = "r:"
)

// ckOp advances the rank's leaf-operation counter under checkpointing.
// It returns skip=true while fast-forwarding through operations already
// covered by the restored snapshot, and otherwise cuts a snapshot when one
// is due at this boundary: before operation 0 (the mandatory restore
// anchor) and whenever Every operations have passed since the last one.
// With checkpointing off it is a single nil check.
func (r *Rank) ckOp() (skip bool, err error) {
	ck := r.sess.ck
	if ck == nil {
		return false, nil
	}
	op := r.ops
	r.ops++
	if op < r.ffUntil {
		return true, nil
	}
	if op == 0 || op-r.lastSnapOps >= ck.every {
		if err := r.snapshotSession(ck, op); err != nil {
			return false, err
		}
	}
	return false, nil
}

// snapshotSession cuts the rank's session state before operation op and
// saves it, then trims the comm layer's retention below the snapshot's
// receive cursors. Skipped while post-restart send suppression is still
// draining — the link counters would overstate the restarted incarnation's
// logical progress (see Endpoint.RecoveryQuiescent).
func (r *Rank) snapshotSession(ck *ckptRuntime, op int) error {
	if !r.e.RecoveryQuiescent() {
		return nil
	}
	tr := r.tr()
	t0 := tr.Now()
	p := r.sess.cfg.Procs
	s := &ck.scratch[r.id]
	s.Rank, s.Wave = r.id, op
	if cap(s.RecvCursor) < p {
		s.RecvCursor = make([]int64, p)
		s.SendCursor = make([]int64, p)
	}
	s.RecvCursor, s.SendCursor = s.RecvCursor[:p], s.SendCursor[:p]
	r.e.Cursors(s.RecvCursor, s.SendCursor)

	s.Ints = append(s.Ints[:0], int64(op), int64(r.waveRuns), int64(r.curBlock))
	for _, v := range r.sendSeq {
		s.Ints = append(s.Ints, int64(v))
	}
	for _, v := range r.recvSeq {
		s.Ints = append(s.Ints, int64(v))
	}

	s.Names, s.Vals = s.Names[:0], s.Vals[:0]
	tagged := func(tag string, m map[string]float64) {
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s.Names = append(s.Names, tag+name)
			s.Vals = append(s.Vals, m[name])
		}
	}
	// Dirty and written marks are only ever set on session arrays, whose
	// names the session sorted once.
	marks := func(tag string, m map[string]bool) {
		for _, name := range r.sess.names {
			if m[name] {
				s.Names = append(s.Names, tag+name)
				s.Vals = append(s.Vals, 1)
			}
		}
	}
	tagged(ckTagScalar, r.lenv.scalars)
	tagged(ckTagCaptured, r.captured)
	marks(ckTagDirty, r.dirty)
	marks(ckTagWrote, r.wrote)
	for _, v := range r.reduceLog {
		s.Names = append(s.Names, ckTagReduce)
		s.Vals = append(s.Vals, v)
	}

	var elems int
	s.Fields, elems = snapFields(s.Fields, r.sess.names, r.locals)
	if err := ck.store.Save(s); err != nil {
		return fmt.Errorf("pipeline: rank %d: session checkpoint at op %d: %w", r.id, op, err)
	}
	r.e.TrimRetained(s.RecvCursor)
	r.lastSnapOps = op
	if ck.pm != nil {
		ck.pm.ckptSnaps.Add(r.id, 1)
	}
	if tr != nil {
		ev := trace.Ev(trace.KindCkpt, r.id, t0, tr.Now())
		ev.Wave, ev.Elems = op, elems
		tr.Record(ev)
	}
	return nil
}

// restoreSession rebuilds a restarted rank from its latest snapshot: array
// data is copied into the freshly allocated locals (geometry is a pure
// function of the session config, so bounds always agree), counters and
// tagged state overwrite the rank's zero state, and the fast-forward
// horizon is set to the snapshot's operation index.
func (r *Rank) restoreSession(ck *ckptRuntime) error {
	tr := r.tr()
	t0 := tr.Now()
	snap, err := ck.store.Latest(r.id)
	if err != nil {
		return err
	}
	if snap == nil {
		return fmt.Errorf("pipeline: rank %d restarted without a session snapshot", r.id)
	}
	p := r.sess.cfg.Procs
	if len(snap.Ints) != 3+2*p {
		return fmt.Errorf("pipeline: rank %d: session snapshot holds %d counters, want %d",
			r.id, len(snap.Ints), 3+2*p)
	}
	if len(snap.Fields) != len(r.locals) {
		return fmt.Errorf("pipeline: rank %d: session snapshot holds %d arrays, session has %d",
			r.id, len(snap.Fields), len(r.locals))
	}
	for i := range snap.Fields {
		fs := &snap.Fields[i]
		f := r.locals[fs.Name]
		if f == nil {
			return fmt.Errorf("pipeline: session snapshot names unknown array %q", fs.Name)
		}
		if len(fs.Data) != len(f.Data()) {
			return fmt.Errorf("pipeline: session snapshot array %q holds %d elements, locals need %d",
				fs.Name, len(fs.Data), len(f.Data()))
		}
		copy(f.Data(), fs.Data)
	}
	r.ffUntil = int(snap.Ints[0])
	r.lastSnapOps = r.ffUntil
	r.ops = 0
	r.waveRuns = int(snap.Ints[1])
	r.curBlock = int(snap.Ints[2])
	for i := 0; i < p; i++ {
		r.sendSeq[i] = int(snap.Ints[3+i])
		r.recvSeq[i] = int(snap.Ints[3+p+i])
	}
	r.reduceLog = r.reduceLog[:0]
	r.reduceIdx = 0
	for i, name := range snap.Names {
		v := snap.Vals[i]
		switch {
		case len(name) < 2:
			return fmt.Errorf("pipeline: session snapshot carries untagged entry %q", name)
		case name[:2] == ckTagScalar:
			if r.lenv.scalars == nil {
				r.lenv.scalars = map[string]float64{}
			}
			r.lenv.scalars[name[2:]] = v
		case name[:2] == ckTagCaptured:
			r.captured[name[2:]] = v
		case name[:2] == ckTagDirty:
			r.dirty[name[2:]] = true
		case name[:2] == ckTagWrote:
			r.wrote[name[2:]] = true
		case name[:2] == ckTagReduce:
			r.reduceLog = append(r.reduceLog, v)
		default:
			return fmt.Errorf("pipeline: session snapshot carries unknown tag %q", name[:2])
		}
	}
	if ck.pm != nil {
		ck.pm.ckptRestores.Add(r.id, 1)
	}
	if tr != nil {
		ev := trace.Ev(trace.KindRestore, r.id, t0, tr.Now())
		ev.Wave, ev.Seq = snap.Wave, int(snap.Seq)
		tr.Record(ev)
	}
	return nil
}
