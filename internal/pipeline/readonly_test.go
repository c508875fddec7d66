package pipeline

import (
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"wavefront/internal/ckpt"
	"wavefront/internal/comm"
	"wavefront/internal/expr"
	"wavefront/internal/fault"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/scan"
	"wavefront/internal/workload"
)

// The Tomcatv forward block assigns r, d, rx and ry and only reads aa and
// dd: the first four are what a rank binds in the caller's rows or copies,
// and snapshots; the last two have no owner that could change them.
var (
	forwardWritten  = []string{"d", "r", "rx", "ry"}
	forwardReadOnly = []string{"aa", "dd"}
)

// primedTomcatv is an n x n instance with the stencils run, so aa and dd
// hold the coefficients the sweeps read.
func primedTomcatv(t *testing.T, n int, layout field.Layout) *workload.Tomcatv {
	t.Helper()
	tc, err := workload.NewTomcatv(n, layout)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*scan.Block{tc.ResidualBlock(), tc.CoefficientBlock()} {
		if err := scan.Exec(b, tc.Env, scan.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return tc
}

// forwardOneShot is pipeline.Run of tc's forward block with a look at each
// rank before it executes.
func forwardOneShot(t *testing.T, tc *workload.Tomcatv, cfg Config, look func(r *Rank)) error {
	t.Helper()
	return oneShot(t, tc.ForwardBlock(), tc.Env, cfg, forwardWritten, look)
}

// oneShot is pipeline.Run of b with a look at each rank before it executes;
// the session must write exactly written.
func oneShot(t *testing.T, b *scan.Block, env expr.Env, cfg Config, written []string, look func(r *Rank)) error {
	t.Helper()
	sess, err := oneBlockSession(b, env, cfg, -1, -1)
	if err == nil {
		err = sess.arm()
	}
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sess.written, written) {
		t.Fatalf("the session writes %v, want %v", sess.written, written)
	}
	return sess.Run(func(r *Rank) error {
		if look != nil {
			look(r)
		}
		return r.Exec(b)
	})
}

// storage is the address range f's elements occupy.
func storage(f *field.Field) (lo, hi uintptr) {
	d := f.Data()
	lo = uintptr(unsafe.Pointer(unsafe.SliceData(d)))
	return lo, lo + uintptr(len(d))*unsafe.Sizeof(d[0])
}

// overlaps reports whether two fields share any storage.
func overlaps(a, b *field.Field) bool {
	aLo, aHi := storage(a)
	bLo, bHi := storage(b)
	return aLo < bHi && bLo < aHi
}

// inCallerRows reports whether l is a window on g's storage: its first
// element is g's element at l's first point. A view starts at the rank's
// first row, not at the caller's.
func inCallerRows(l, g *field.Field) bool {
	first := make(grid.Point, l.Rank())
	for d := range first {
		first[d] = l.Bounds().Dim(d).Lo
	}
	return l != g && overlaps(l, g) && &l.Data()[0] == &g.Data()[g.Index(first)]
}

// pitch is a rank-2 field's stride along its outermost storage dimension
// and extent the length of its contiguous runs: a row's row-major, a
// column's col-major.
func pitch(f *field.Field) (pitch, extent int) {
	if f.Layout() == field.ColMajor {
		return f.Stride(1), f.Bounds().Dim(0).Size()
	}
	return f.Stride(0), f.Bounds().Dim(1).Size()
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// What a rank holds of one array: the caller's field itself, a view of the
// caller's rows, or a copy.
const (
	ownField = 'F'
	ownRows  = 'R'
	ownCopy  = 'C'
)

// TestReadOnlyArraysAreShared pins what a rank owns, rank by rank and array
// by array. An array no block writes is the caller's field itself, whatever
// pitch the fields beside it have. An array some block writes is a view of
// the caller's rows where the rank's box reaches no other rank's slab — the
// head rank's d, rx and ry, whose north halo is the caller's boundary row,
// the tail's rx and ry on the backward block, r (never read shifted) on
// every rank, everything at p = 1 — and the copy there would be dense;
// elsewhere it is a copy at the runtime's pitch (padded at n = 512 walked in
// 32-column tiles by the static schedule, so every written array is a copy
// there; dense under the task DAG). A col-major field cut along its
// contiguous dimension is no one piece, so it is copied. Every way the
// result is the serial one, bit for bit.
func TestReadOnlyArraysAreShared(t *testing.T) {
	forward := func(tc *workload.Tomcatv) *scan.Block { return tc.ForwardBlock() }
	backward := func(tc *workload.Tomcatv) *scan.Block { return tc.BackwardBlock() }
	for _, c := range []struct {
		name        string
		n, procs, b int
		sched       scan.Scheduler
		layout      field.Layout
		block       func(*workload.Tomcatv) *scan.Block
		written     []string
		// own[rank] has one letter per session array in sorted order — aa d
		// dd r rx ry forward, aa d rx ry backward — and copyPad is the pad
		// a copy's pitch carries beyond its contiguous extent.
		own     []string
		copyPad int
	}{
		{"n128-p2", 128, 2, 16, scan.SchedStatic, field.RowMajor, forward, forwardWritten,
			[]string{"FRFRRR", "FCFRCC"}, 0},
		{"n128-p4", 128, 4, 16, scan.SchedStatic, field.RowMajor, forward, forwardWritten,
			[]string{"FRFRRR", "FCFRCC", "FCFRCC", "FCFRCC"}, 0},
		{"n128-p1", 128, 1, 16, scan.SchedStatic, field.RowMajor, forward, forwardWritten,
			[]string{"FRFRRR"}, 0},
		{"n512-b32-static", 512, 2, 32, scan.SchedStatic, field.RowMajor, forward, forwardWritten,
			[]string{"FCFCCC", "FCFCCC"}, 8},
		{"n512-b32-taskdag", 512, 2, 32, scan.SchedTaskDAG, field.RowMajor, forward, forwardWritten,
			[]string{"FRFRRR", "FCFRCC"}, 0},
		{"n128-p2-backward", 128, 2, 16, scan.SchedStatic, field.RowMajor, backward, []string{"rx", "ry"},
			[]string{"FFCC", "FFRR"}, 0},
		{"n128-p2-colmajor", 128, 2, 16, scan.SchedStatic, field.ColMajor, forward, forwardWritten,
			[]string{"FCFCCC", "FCFCCC"}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := primedTomcatv(t, c.n, c.layout)
			if err := scan.Exec(c.block(want), want.Env, scan.ExecOptions{}); err != nil {
				t.Fatal(err)
			}
			tc := primedTomcatv(t, c.n, c.layout)
			cfg := Config{Procs: c.procs, Block: c.b, Scheduler: c.sched, Workers: 2}
			err := oneShot(t, c.block(tc), tc.Env, cfg, c.written, func(r *Rank) {
				own := c.own[r.ID()]
				if len(own) != len(r.sess.names) {
					t.Errorf("rank %d holds %v, the table names %d arrays", r.ID(), r.sess.names, len(own))
					return
				}
				for i, name := range r.sess.names {
					g, l := tc.Env.Arrays[name], r.locals[name]
					var got byte
					switch {
					case l == g:
						got = ownField
					case inCallerRows(l, g):
						got = ownRows
					case !overlaps(l, g):
						got = ownCopy
					default:
						t.Errorf("rank %d: %s overlaps the caller's storage but is not a window on its rows", r.ID(), name)
						continue
					}
					if got != own[i] {
						t.Errorf("rank %d: %s is %c over %v, want %c", r.ID(), name, got, l.Bounds(), own[i])
					}
					if p, extent := pitch(l); got == ownCopy && p != extent+c.copyPad {
						t.Errorf("rank %d: copy of %s has pitch %d, want %d", r.ID(), name, p, extent+c.copyPad)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range workload.TomcatvArrays {
				if !bitsEqual(tc.Env.Arrays[name].Data(), want.Env.Arrays[name].Data()) {
					t.Errorf("%s differs from the serial result", name)
				}
			}
		})
	}
}

// fieldNameStore records the arrays every saved snapshot carries, and any
// array whose data is not exactly its box, element for element.
type fieldNameStore struct {
	ckpt.Store
	mu    sync.Mutex
	saves int
	bad   [][]string
}

func (s *fieldNameStore) Save(snap *ckpt.Snapshot) error {
	names := make([]string, len(snap.Fields))
	dense := true
	for i := range snap.Fields {
		fs := &snap.Fields[i]
		names[i] = fs.Name
		size := 1
		for d := 0; d < len(fs.Dims); d += 2 {
			size *= fs.Dims[d+1] - fs.Dims[d] + 1
		}
		dense = dense && len(fs.Data) == size
	}
	s.mu.Lock()
	s.saves++
	if !dense || !slices.Equal(names, forwardWritten) {
		s.bad = append(s.bad, names)
	}
	s.mu.Unlock()
	return s.Store.Save(snap)
}

// TestReadOnlyArraysSurviveRestart is the crash drill on the same block: a
// rank crashes inside the sweep and restarts from its snapshot, over the
// in-process and the unix-socket transports. Rank 1 keeps copies of d, rx
// and ry; rank 0, the head of the sweep, computes all four written arrays
// in the caller's rows, and both its incarnations bind those views — the
// restarted one restores into them without a scatter. Snapshots carry
// exactly the written arrays, each at the byte count a dense copy would
// have. The restarted rank reads aa and dd from the globals again and
// nobody — scatter, restore, gather — writes them: they come out of the
// run bit-identical to what went in, and the written arrays match serial.
func TestReadOnlyArraysSurviveRestart(t *testing.T) {
	const n, procs, block = 64, 4, 8
	for _, kind := range []comm.TransportKind{comm.TransportChan, comm.TransportUnix} {
		t.Run(kind.String(), func(t *testing.T) {
			for _, crash := range []struct {
				name string
				rank int
				rule fault.Rule
			}{
				// Rank 1's receive of the third boundary message from rank 0.
				{"copies", 1, fault.Rule{Op: fault.OpRecv, Rank: 1, Peer: 0, Tag: 2, Action: fault.ActCrash}},
				// Rank 0's send of that message.
				{"in-place", 0, fault.Rule{Op: fault.OpSend, Rank: 0, Peer: 1, Tag: 2, Action: fault.ActCrash}},
			} {
				t.Run(crash.name, func(t *testing.T) {
					want := primedTomcatv(t, n, field.RowMajor)
					if err := scan.Exec(want.ForwardBlock(), want.Env, scan.ExecOptions{}); err != nil {
						t.Fatal(err)
					}
					tc := primedTomcatv(t, n, field.RowMajor)
					before := map[string][]float64{}
					for _, name := range forwardReadOnly {
						before[name] = slices.Clone(tc.Env.Arrays[name].Data())
					}
					inj := fault.MustNew(fault.Plan{Rules: []fault.Rule{crash.rule}})
					store := &fieldNameStore{Store: ckpt.NewMemStore()}
					var incarnations [procs]atomic.Int32
					err := forwardOneShot(t, tc, Config{
						Procs: procs, Block: block, Faults: inj,
						Transport:  comm.TransportConfig{Kind: kind},
						Checkpoint: &CheckpointConfig{Every: 2, Store: store},
					}, func(r *Rank) {
						life := incarnations[r.ID()].Add(1)
						for _, name := range forwardReadOnly {
							if r.locals[name] != tc.Env.Arrays[name] {
								t.Errorf("rank %d (incarnation %d): %s is not the caller's field", r.ID(), life, name)
							}
						}
						if r.ID() != 0 {
							return
						}
						for _, name := range forwardWritten {
							if !inCallerRows(r.locals[name], tc.Env.Arrays[name]) {
								t.Errorf("rank 0 (incarnation %d): written %s is not a view of the caller's rows", life, name)
							}
						}
					})
					if err != nil {
						t.Fatalf("crash did not recover: %v", err)
					}
					if inj.Fired() == 0 || incarnations[crash.rank].Load() < 2 {
						t.Fatalf("rank %d never restarted; the drill proves nothing", crash.rank)
					}
					if store.saves == 0 || len(store.bad) != 0 {
						t.Errorf("%d snapshots saved, of which these carry other arrays than %v or not one element per point: %v",
							store.saves, forwardWritten, store.bad)
					}
					for _, name := range forwardReadOnly {
						if !bitsEqual(tc.Env.Arrays[name].Data(), before[name]) {
							t.Errorf("read-only %s changed across a run with a restart", name)
						}
					}
					for _, name := range workload.TomcatvArrays {
						if !bitsEqual(tc.Env.Arrays[name].Data(), want.Env.Arrays[name].Data()) {
							t.Errorf("%s differs from the serial result after recovery", name)
						}
					}
				})
			}
		})
	}
}

// renamingStore hands a restart a snapshot whose first array goes by
// another name.
type renamingStore struct {
	ckpt.Store
	to string
}

func (s *renamingStore) Latest(rank int) (*ckpt.Snapshot, error) {
	snap, err := s.Store.Latest(rank)
	if snap == nil {
		return snap, err
	}
	forged := *snap
	forged.Fields = slices.Clone(snap.Fields)
	forged.Fields[0].Name = s.to
	return &forged, err
}

// TestRestoreRefusesReadOnlyArray: a snapshot carrying data for an array no
// block writes would be restored into the caller's own field. The restart is
// refused with a structured error, the run fails, and the read-only globals
// are what they were. (The written ones need not be: a rank that finished
// before the failure has gathered its slab, and a rank that computes in the
// caller's rows — rank 0's four arrays, every rank's r — wrote them as it
// went.)
func TestRestoreRefusesReadOnlyArray(t *testing.T) {
	const n, procs, block = 48, 3, 8
	tc := primedTomcatv(t, n, field.RowMajor)
	before := map[string][]float64{}
	for _, name := range forwardReadOnly {
		before[name] = slices.Clone(tc.Env.Arrays[name].Data())
	}
	inj := fault.MustNew(fault.Plan{Rules: []fault.Rule{{
		Op: fault.OpRecv, Rank: 1, Peer: 0, Tag: 2, Action: fault.ActCrash}}})
	err := forwardOneShot(t, tc, Config{
		Procs: procs, Block: block, Faults: inj,
		Checkpoint: &CheckpointConfig{Every: 1, Store: &renamingStore{Store: ckpt.NewMemStore(), to: "aa"}},
	}, nil)
	var ro *ReadOnlySnapshotError
	if !errors.As(err, &ro) {
		t.Fatalf("run returned %v, want a *ReadOnlySnapshotError", err)
	}
	if ro.Rank != 1 || ro.Array != "aa" {
		t.Errorf("refusal names rank %d array %q, want rank 1 array \"aa\"", ro.Rank, ro.Array)
	}
	for _, name := range forwardReadOnly {
		if !bitsEqual(tc.Env.Arrays[name].Data(), before[name]) {
			t.Errorf("read-only %s changed in a run that failed", name)
		}
	}

	// A name the session does not know at all keeps its own refusal.
	tc = primedTomcatv(t, n, field.RowMajor)
	inj = fault.MustNew(fault.Plan{Rules: []fault.Rule{{
		Op: fault.OpRecv, Rank: 1, Peer: 0, Tag: 2, Action: fault.ActCrash}}})
	err = forwardOneShot(t, tc, Config{
		Procs: procs, Block: block, Faults: inj,
		Checkpoint: &CheckpointConfig{Every: 1, Store: &renamingStore{Store: ckpt.NewMemStore(), to: "zz"}},
	}, nil)
	if err == nil || errors.As(err, &ro) {
		t.Fatalf("an unknown array in a snapshot: run returned %v, want the unknown-array refusal", err)
	}
}
