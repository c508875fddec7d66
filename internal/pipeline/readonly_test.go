package pipeline

import (
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"wavefront/internal/ckpt"
	"wavefront/internal/comm"
	"wavefront/internal/fault"
	"wavefront/internal/field"
	"wavefront/internal/scan"
	"wavefront/internal/workload"
)

// The Tomcatv forward block assigns r, d, rx and ry and only reads aa and
// dd: the first four are what a rank copies, exchanges, snapshots and
// gathers; the last two have no owner that could change them.
var (
	forwardWritten  = []string{"d", "r", "rx", "ry"}
	forwardReadOnly = []string{"aa", "dd"}
)

// primedTomcatv is an n x n instance with the stencils run, so aa and dd
// hold the coefficients the forward sweep reads.
func primedTomcatv(t *testing.T, n int) *workload.Tomcatv {
	t.Helper()
	tc, err := workload.NewTomcatv(n, field.RowMajor)
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
	b := tc.ForwardBlock()
	sess, err := oneBlockSession(b, tc.Env, cfg, -1, -1)
	if err == nil {
		err = sess.arm()
	}
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sess.written, forwardWritten) {
		t.Fatalf("the session writes %v, want %v", sess.written, forwardWritten)
	}
	return sess.Run(func(r *Rank) error {
		if look != nil {
			look(r)
		}
		return r.Exec(b)
	})
}

// sameStorage reports whether two fields are one: the same backing array.
func sameStorage(a, b *field.Field) bool { return &a.Data()[0] == &b.Data()[0] }

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestReadOnlyArraysAreShared pins what a rank owns. An array some block
// writes is a haloed local copy at the runtime's pitch (padded at n = 512
// walked in 32-column tiles by the static schedule, dense under the task
// DAG); an array no block writes is the caller's field itself, whatever
// pitch the copies beside it have. Either way the result is the serial one,
// bit for bit.
func TestReadOnlyArraysAreShared(t *testing.T) {
	for _, c := range []struct {
		name         string
		n, procs, b  int
		sched        scan.Scheduler
		writtenPitch int
	}{
		{"n128-p2", 128, 2, 16, scan.SchedStatic, 128},
		{"n128-p4", 128, 4, 16, scan.SchedStatic, 128},
		{"n512-b32-static", 512, 2, 32, scan.SchedStatic, 520},
		{"n512-b32-taskdag", 512, 2, 32, scan.SchedTaskDAG, 512},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := primedTomcatv(t, c.n)
			if err := scan.Exec(want.ForwardBlock(), want.Env, scan.ExecOptions{}); err != nil {
				t.Fatal(err)
			}
			tc := primedTomcatv(t, c.n)
			cfg := Config{Procs: c.procs, Block: c.b, Scheduler: c.sched, Workers: 2}
			err := forwardOneShot(t, tc, cfg, func(r *Rank) {
				for _, name := range forwardReadOnly {
					if l := r.locals[name]; l != tc.Env.Arrays[name] {
						t.Errorf("rank %d: %s is a copy over %v, want the caller's field", r.ID(), name, l.Bounds())
					}
				}
				for _, name := range forwardWritten {
					g, l := tc.Env.Arrays[name], r.locals[name]
					if sameStorage(l, g) || l.Stride(0) != c.writtenPitch {
						t.Errorf("rank %d: written %s has pitch %d (the caller's storage: %v), want a copy at %d",
							r.ID(), name, l.Stride(0), sameStorage(l, g), c.writtenPitch)
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

// fieldNameStore records the arrays every saved snapshot carries.
type fieldNameStore struct {
	ckpt.Store
	mu    sync.Mutex
	saves int
	bad   [][]string
}

func (s *fieldNameStore) Save(snap *ckpt.Snapshot) error {
	names := make([]string, len(snap.Fields))
	for i := range snap.Fields {
		names[i] = snap.Fields[i].Name
	}
	s.mu.Lock()
	s.saves++
	if !slices.Equal(names, forwardWritten) {
		s.bad = append(s.bad, names)
	}
	s.mu.Unlock()
	return s.Store.Save(snap)
}

// TestReadOnlyArraysSurviveRestart is the crash drill on the same block: a
// rank crashes inside the sweep and restarts from its snapshot, over the
// in-process and the unix-socket transports. Snapshots carry exactly the
// written arrays, the restarted rank reads aa and dd from the globals again
// and nobody — scatter, restore, gather — writes them: they come out of the
// run bit-identical to what went in, and the written arrays match serial.
func TestReadOnlyArraysSurviveRestart(t *testing.T) {
	const n, procs, block = 64, 4, 8
	for _, kind := range []comm.TransportKind{comm.TransportChan, comm.TransportUnix} {
		t.Run(kind.String(), func(t *testing.T) {
			want := primedTomcatv(t, n)
			if err := scan.Exec(want.ForwardBlock(), want.Env, scan.ExecOptions{}); err != nil {
				t.Fatal(err)
			}
			tc := primedTomcatv(t, n)
			before := map[string][]float64{}
			for _, name := range forwardReadOnly {
				before[name] = slices.Clone(tc.Env.Arrays[name].Data())
			}
			// Rank 1's receive of the third boundary message from rank 0.
			inj := fault.MustNew(fault.Plan{Rules: []fault.Rule{{
				Op: fault.OpRecv, Rank: 1, Peer: 0, Tag: 2, Action: fault.ActCrash}}})
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
			})
			if err != nil {
				t.Fatalf("crash did not recover: %v", err)
			}
			if inj.Fired() == 0 || incarnations[1].Load() < 2 {
				t.Fatal("rank 1 never restarted; the drill proves nothing")
			}
			if store.saves == 0 || len(store.bad) != 0 {
				t.Errorf("%d snapshots saved, of which these carry other arrays than %v: %v",
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
// before the failure has gathered its slab.)
func TestRestoreRefusesReadOnlyArray(t *testing.T) {
	const n, procs, block = 48, 3, 8
	tc := primedTomcatv(t, n)
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
	tc = primedTomcatv(t, n)
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
