package pipeline

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wavefront/internal/ckpt"
	"wavefront/internal/fault"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/scan"
	"wavefront/internal/taskdag"
	"wavefront/internal/workload"
)

// Robustness drills for the checkpoint stores as the runtime uses them: a
// snapshot file that has gone bad by the time a rank restarts, and the
// snapshot-by-alias contract under the task-DAG scheduler.

// badFileStore is a FileStore whose rank-1 file is damaged, and whose
// in-memory mirror is dropped, just before the first Latest(1) — what a
// restart in a fresh process would find after the disk lost the file's
// tail or a bit of it.
type badFileStore struct {
	*ckpt.FileStore
	dir    string
	damage func(buf []byte) []byte
	once   sync.Once
}

func (s *badFileStore) Latest(rank int) (*ckpt.Snapshot, error) {
	if rank == 1 {
		s.once.Do(func() {
			path := filepath.Join(s.dir, "rank-1.ckpt")
			buf, err := os.ReadFile(path)
			if err == nil {
				err = os.WriteFile(path, s.damage(buf), 0o644)
			}
			if err != nil {
				panic(err)
			}
			s.FileStore.Close() // drop the mirrors; the files are all that is left
		})
	}
	return s.FileStore.Latest(rank)
}

// TestRestartFromDamagedSnapshotFile: the crashed rank's only snapshot is
// unreadable when it comes to restart. The run must end — peers canceled,
// not left waiting for a rank that will never resume — and its error must
// carry the store's verdict, not only the crash that asked for the restart.
func TestRestartFromDamagedSnapshotFile(t *testing.T) {
	damages := []struct {
		name   string
		damage func([]byte) []byte
		check  func(error) bool
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }, func(err error) bool {
			var fe *ckpt.FormatError
			return errors.As(err, &fe)
		}},
		{"bit flipped", func(b []byte) []byte { b[len(b)/2] ^= 0x10; return b }, func(err error) bool {
			return errors.Is(err, ckpt.ErrChecksum)
		}},
		{"old format", func(b []byte) []byte { b[0] = '1'; return b }, func(err error) bool {
			var fe *ckpt.FormatError
			return errors.As(err, &fe) && fe.Version == "WFCPKT01"
		}},
	}
	// Both crash rank 1 on a receive from rank 0: the one-block run on its
	// third boundary message (a wave is a whole sweep, so a tile inside the
	// only one is pinned by tag), the session in its third sweep.
	thirdMessage := fault.Rule{Op: fault.OpRecv, Rank: 1, Peer: 0, Tag: 2, Action: fault.ActCrash}
	thirdSweep := fault.Rule{Op: fault.OpRecv, Rank: 1, Peer: 0, Tag: fault.Any, Wave: 3, Action: fault.ActCrash}
	crashRank1 := func(t *testing.T, rule fault.Rule) *fault.Injector {
		inj, err := fault.New(fault.Plan{Rules: []fault.Rule{rule}})
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	runners := []struct {
		name string
		run  func(t *testing.T, st ckpt.Store) error
	}{
		{"Run", func(t *testing.T, st ckpt.Store) error {
			tom, err := workload.NewTomcatv(34, field.RowMajor)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(3, 4)
			cfg.Faults = crashRank1(t, thirdMessage)
			cfg.Checkpoint = &CheckpointConfig{Every: 2, Store: st}
			_, err = Run(tom.ForwardBlock(), tom.Env, cfg)
			return err
		}},
		{"Session", func(t *testing.T, st ckpt.Store) error {
			tom, err := workload.NewTomcatv(26, field.RowMajor)
			if err != nil {
				t.Fatal(err)
			}
			blocks := tom.Blocks()
			sess, err := NewSession(tom.Env, blocks, SessionConfig{
				Procs: 3, Domain: tom.All, Block: 4,
				Faults:     crashRank1(t, thirdSweep),
				Checkpoint: &CheckpointConfig{Every: 2, Store: st},
			})
			if err != nil {
				t.Fatal(err)
			}
			return sess.Run(func(r *Rank) error {
				for i := 0; i < 3; i++ {
					for _, b := range blocks {
						if err := r.Exec(b); err != nil {
							return err
						}
					}
				}
				return nil
			})
		}},
	}
	for _, rn := range runners {
		for _, dm := range damages {
			t.Run(rn.name+"/"+dm.name, func(t *testing.T) {
				dir := t.TempDir()
				fs, err := ckpt.NewFileStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				st := &badFileStore{FileStore: fs, dir: dir, damage: dm.damage}
				done := make(chan error, 1)
				go func() { done <- rn.run(t, st) }()
				select {
				case err = <-done:
				case <-time.After(30 * time.Second):
					t.Fatal("run still going 30 s after the restart was refused: peers were not canceled")
				}
				if err == nil {
					t.Fatal("run succeeded although the crashed rank's snapshot was unreadable")
				}
				if !dm.check(err) {
					t.Errorf("run error does not carry the store's verdict: %v", err)
				}
				if !errors.Is(err, fault.ErrInjected) || !strings.Contains(err.Error(), "restart refused") {
					t.Errorf("run error should name both the crash and the refused restart: %v", err)
				}
			})
		}
	}
}

// quietStore checks the contract that lets a snapshot alias live array
// storage (FieldSnap.Data is the field's own backing, not a copy): nothing
// may write that storage while Save reads it. inFlight[r] counts rank r's
// task-DAG tiles executing right now, on any of its workers; every Save
// must find the saving rank's count at zero and the aliased data
// bit-identical before and after the store's deep copy.
type quietStore struct {
	ckpt.Store
	inFlight []atomic.Int64 // per rank
	saves    atomic.Int64
	mu       sync.Mutex
	faults   []string
}

func (s *quietStore) fault(format string, args ...any) {
	s.mu.Lock()
	s.faults = append(s.faults, fmt.Sprintf(format, args...))
	s.mu.Unlock()
}

func (s *quietStore) Save(snap *ckpt.Snapshot) error {
	s.saves.Add(1)
	if n := s.inFlight[snap.Rank].Load(); n != 0 {
		s.fault("rank %d wave %d: snapshot cut with %d tiles executing", snap.Rank, snap.Wave, n)
	}
	before := make([][]float64, len(snap.Fields))
	for i := range snap.Fields {
		before[i] = append([]float64(nil), snap.Fields[i].Data...)
	}
	err := s.Store.Save(snap)
	if n := s.inFlight[snap.Rank].Load(); n != 0 {
		s.fault("rank %d wave %d: %d tiles executing by the end of Save", snap.Rank, snap.Wave, n)
	}
	for i := range snap.Fields {
		for j, v := range snap.Fields[i].Data {
			if math.Float64bits(v) != math.Float64bits(before[i][j]) {
				s.fault("rank %d wave %d: %s[%d] changed while Save ran", snap.Rank, snap.Wave, snap.Fields[i].Name, j)
				break
			}
		}
	}
	return err
}

// TestSnapshotAliasQuietUnderTaskDAG is the recovery drill for
// snapshot-by-alias: a Tomcatv session on the task-DAG scheduler, two
// workers per rank, a snapshot before every operation and an injected
// crash. Every snapshot must be cut with the rank's workers parked, and
// the recovered run must still match serial execution bit for bit.
func TestSnapshotAliasQuietUnderTaskDAG(t *testing.T) {
	const n, iters, procs, workers = 26, 2, 2, 2
	ref, err := workload.NewTomcatv(n, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < iters; i++ {
		if _, err := ref.Step(); err != nil {
			t.Fatal(err)
		}
	}
	par, _ := workload.NewTomcatv(n, field.RowMajor)

	st := &quietStore{Store: ckpt.NewMemStore(), inFlight: make([]atomic.Int64, procs)}
	// The hook is not told which rank a graph belongs to; it is the rank
	// whose slab holds the graph's tiles.
	var (
		slabs []grid.Region
		wDim  int
		tiles atomic.Int64
	)
	defer scan.SetTaskDAGHook(func(g *taskdag.Graph) {
		rank := -1
		first := g.TileRegion(0)
		for r, slab := range slabs {
			if rows, err := slab.Dim(wDim).Intersect(first.Dim(wDim)); err == nil && !rows.Empty() {
				rank = r
			}
		}
		if rank < 0 {
			panic(fmt.Sprintf("tile %v lies in no slab of %v", first, slabs))
		}
		base := g.Runner()
		g.SetRunner(func(w int, tile grid.Region) {
			st.inFlight[rank].Add(1)
			tiles.Add(1)
			base(w, tile)
			st.inFlight[rank].Add(-1)
		})
	})()

	inj, err := fault.New(fault.Plan{Rules: []fault.Rule{{
		Op: fault.OpRecv, Rank: 1, Peer: 0, Tag: fault.Any, Wave: 3, Action: fault.ActCrash,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	blocks := par.Blocks()
	sess, err := NewSession(par.Env, blocks, SessionConfig{
		Procs: procs, Domain: par.All, Block: 4,
		Scheduler: scan.SchedTaskDAG, Workers: workers,
		Faults:     inj,
		Checkpoint: &CheckpointConfig{Every: 1, Store: st},
	})
	if err != nil {
		t.Fatal(err)
	}
	slabs, wDim = sess.slabs, sess.cfg.WavefrontDim
	err = sess.Run(func(r *Rank) error {
		for i := 0; i < iters; i++ {
			for _, b := range blocks {
				if err := r.Exec(b); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("crash did not recover: %v", err)
	}
	if inj.Fired() == 0 {
		t.Fatal("crash rule never fired; the drill proves nothing")
	}
	if got, want := st.saves.Load(), int64(procs*iters*len(blocks)); got < want {
		t.Errorf("store saw %d snapshots, want at least %d (one per rank per operation)", got, want)
	}
	if tiles.Load() == 0 {
		t.Error("no tile ran through the hooked runner; the in-flight counter watched nothing")
	}
	for _, f := range st.faults {
		t.Error(f)
	}
	for _, name := range workload.TomcatvArrays {
		if d := par.Env.Arrays[name].MaxAbsDiff(par.All, ref.Env.Arrays[name]); d != 0 {
			t.Errorf("%s differs from serial by %g after recovery", name, d)
		}
	}
}
