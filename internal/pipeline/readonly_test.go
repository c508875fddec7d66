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
	defer sess.Close()
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

// holdings reads what r holds of each session array, in sorted name order,
// from storage alone: F the caller's field itself, R a window on the
// caller's rows that no other rank's slab holds, H one whose halo rows
// another rank's slab holds, C a copy ('?' overlaps the caller's storage
// without being a window on its rows).
func holdings(r *Rank, env expr.Env) string {
	w := r.sess.cfg.WavefrontDim
	out := make([]byte, len(r.sess.names))
	for i, name := range r.sess.names {
		g, l := env.Array(name), r.locals[name]
		switch {
		case l == g:
			out[i] = 'F'
		case inCallerRows(l, g):
			out[i] = 'R'
			rows := l.Bounds().Dim(w)
			for j, slab := range r.sess.slabs {
				if j != r.id && rows.Lo <= slab.Dim(w).Hi && slab.Dim(w).Lo <= rows.Hi {
					out[i] = 'H'
				}
			}
		case !overlaps(l, g):
			out[i] = 'C'
		default:
			out[i] = '?'
		}
	}
	return string(out)
}

// TestReadOnlyArraysAreShared pins what a rank owns, rank by rank and array
// by array. An array no block writes is the caller's field itself, whatever
// pitch the fields beside it have. An array some block writes is a view of
// the caller's rows where the copy would be dense and either the rank's box
// reaches no other rank's slab — the head rank's d, rx and ry, whose north
// halo is the caller's boundary row, the tail's rx and ry on the backward
// block, r (never read shifted) on every rank, everything at p = 1 — or,
// in a one-shot Run on the in-process transport without checkpoint or
// faults, the array's pipelined halo rows are read where the upstream rank
// wrote them: then every other rank's d, rx and ry too. Elsewhere it is a
// copy at the runtime's pitch: padded at n = 512 walked in 32-column tiles
// by the static schedule, so every written array is a copy there, and dense
// under the task DAG. A col-major field cut along its contiguous dimension
// is no one piece, so it is copied. A session, which may sweep again, the
// unix transport, a checkpoint and a fault injector keep the copies. Every
// way the result is the serial one, bit for bit.
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
		// own[rank] has one letter of holdings per session array in sorted
		// order — aa d dd r rx ry forward, aa d rx ry backward — and copyPad
		// is the pad a copy's pitch carries beyond its contiguous extent.
		own     []string
		copyPad int
		// session runs the block in a NewSession over its region instead of
		// pipeline.Run; set changes the configuration.
		session bool
		set     func(*Config)
	}{
		{"n128-p2", 128, 2, 16, scan.SchedStatic, field.RowMajor, forward, forwardWritten,
			[]string{"FRFRRR", "FHFRHH"}, 0, false, nil},
		{"n128-p4", 128, 4, 16, scan.SchedStatic, field.RowMajor, forward, forwardWritten,
			[]string{"FRFRRR", "FHFRHH", "FHFRHH", "FHFRHH"}, 0, false, nil},
		{"n128-p1", 128, 1, 16, scan.SchedStatic, field.RowMajor, forward, forwardWritten,
			[]string{"FRFRRR"}, 0, false, nil},
		{"n512-b32-static", 512, 2, 32, scan.SchedStatic, field.RowMajor, forward, forwardWritten,
			[]string{"FCFCCC", "FCFCCC"}, 8, false, nil},
		{"n512-b32-taskdag", 512, 2, 32, scan.SchedTaskDAG, field.RowMajor, forward, forwardWritten,
			[]string{"FRFRRR", "FHFRHH"}, 0, false, nil},
		{"n128-p2-backward", 128, 2, 16, scan.SchedStatic, field.RowMajor, backward, []string{"rx", "ry"},
			[]string{"FFHH", "FFRR"}, 0, false, nil},
		{"n128-p2-colmajor", 128, 2, 16, scan.SchedStatic, field.ColMajor, forward, forwardWritten,
			[]string{"FCFCCC", "FCFCCC"}, 0, false, nil},
		{"n128-p2-session", 128, 2, 16, scan.SchedStatic, field.RowMajor, forward, forwardWritten,
			[]string{"FRFRRR", "FCFRCC"}, 0, true, nil},
		{"n128-p2-unix", 128, 2, 16, scan.SchedStatic, field.RowMajor, forward, forwardWritten,
			[]string{"FRFRRR", "FCFRCC"}, 0, false, func(c *Config) { c.Transport.Kind = comm.TransportUnix }},
		{"n128-p2-checkpoint", 128, 2, 16, scan.SchedStatic, field.RowMajor, forward, forwardWritten,
			[]string{"FRFRRR", "FCFRCC"}, 0, false, func(c *Config) { c.Checkpoint = &CheckpointConfig{Every: 2} }},
		{"n128-p2-faults", 128, 2, 16, scan.SchedStatic, field.RowMajor, forward, forwardWritten,
			[]string{"FRFRRR", "FCFRCC"}, 0, false, func(c *Config) { c.Faults = fault.MustNew(fault.Plan{}) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := primedTomcatv(t, c.n, c.layout)
			if err := scan.Exec(c.block(want), want.Env, scan.ExecOptions{}); err != nil {
				t.Fatal(err)
			}
			tc := primedTomcatv(t, c.n, c.layout)
			blk := c.block(tc)
			cfg := Config{Procs: c.procs, Block: c.b, Scheduler: c.sched, Workers: 2}
			if c.set != nil {
				c.set(&cfg)
			}
			look := func(r *Rank) {
				got := holdings(r, tc.Env)
				if got != c.own[r.ID()] {
					t.Errorf("rank %d holds %v as %s, want %s", r.ID(), r.sess.names, got, c.own[r.ID()])
				}
				for i, name := range r.sess.names {
					if p, extent := pitch(r.locals[name]); got[i] == 'C' && p != extent+c.copyPad {
						t.Errorf("rank %d: copy of %s has pitch %d, want %d", r.ID(), name, p, extent+c.copyPad)
					}
				}
			}
			var err error
			if c.session {
				cfg.Domain = blk.Region
				var sess *Session
				if sess, err = NewSession(tc.Env, []*scan.Block{blk}, cfg); err == nil {
					err = sess.Run(func(r *Rank) error {
						look(r)
						return r.Exec(blk)
					})
					sess.Close()
				}
			} else {
				err = oneShot(t, blk, tc.Env, cfg, c.written, look)
			}
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

	// A written array that is also read unprimed across the slab boundary,
	// downstream of the sweep: its halo there must hold the rows as they
	// were before the block, so both ranks copy it.
	t.Run("n64-p2-unprimed-downstream", func(t *testing.T) {
		const n = 64
		bounds := grid.MustRegion(grid.NewRange(0, n+1), grid.NewRange(0, n+1))
		blk := scan.NewScan(grid.Square(2, 1, n), scan.Stmt{LHS: expr.Ref("a"), RHS: expr.Binary{Op: expr.Add,
			L: expr.MulN(expr.Const(0.5), expr.Ref("a").At(grid.North).Prime()),
			R: expr.MulN(expr.Const(0.25), expr.Ref("a").At(grid.South))}})
		want, got := env2([]string{"a"}, bounds), env2([]string{"a"}, bounds)
		seed(want, bounds, 1)
		seed(got, bounds, 1)
		if err := scan.Exec(blk, want, scan.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
		err := oneShot(t, blk, got, Config{Procs: 2, Block: 8}, []string{"a"}, func(r *Rank) {
			if h := holdings(r, got); h != "C" {
				t.Errorf("rank %d holds a as %s, want C", r.ID(), h)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(got.Arrays["a"].Data(), want.Arrays["a"].Data()) {
			t.Error("a differs from the serial result")
		}
	})
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
