package pipeline

import (
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"wavefront/internal/ckpt"
	"wavefront/internal/comm"
	"wavefront/internal/expr"
	"wavefront/internal/fault"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/scan"
	"wavefront/internal/trace"
	"wavefront/internal/workload"
)

// tomcatvSession is the whole Tomcatv program — stencils, both wavefront
// sweeps, reductions — as a session body over the blocks the session
// registered, recording rank 0's residual history. When w is not nil,
// iteration i first sets the scalar w to w[i].
func tomcatvSession(par *workload.Tomcatv, blocks []*scan.Block, iters int, w []float64, resid *[]float64) func(r *Rank) error {
	absRx := expr.Call{Fn: expr.Abs, Args: []expr.Node{expr.Ref("rx")}}
	absRy := expr.Call{Fn: expr.Abs, Args: []expr.Node{expr.Ref("ry")}}
	return func(r *Rank) error {
		if r.ID() == 0 {
			*resid = (*resid)[:0] // a restarted rank 0 re-runs the body from the top
		}
		for i := 0; i < iters; i++ {
			if w != nil {
				r.SetScalar("w", w[i])
			}
			for _, b := range blocks {
				if err := r.Exec(b); err != nil {
					return err
				}
			}
			vx, err := r.Reduce(scan.MaxReduce, par.Interior, absRx)
			if err != nil {
				return err
			}
			vy, err := r.Reduce(scan.MaxReduce, par.Interior, absRy)
			if err != nil {
				return err
			}
			if r.ID() == 0 {
				*resid = append(*resid, math.Max(vx, vy))
			}
		}
		return nil
	}
}

// refreshRecvTag runs the Tomcatv session once, fault-free and traced, and
// returns the tag of the message that carries the one-sided refresh before
// the given iteration's forward sweep: the receive from rank 0 inside rank
// 1's last exchange event ahead of that sweep's first compute. Tags are
// per-peer counters over a deterministic operation sequence, so the same
// tag names the same message in the faulted run.
func refreshRecvTag(t *testing.T, n, procs, iter int) int {
	t.Helper()
	par, err := workload.NewTomcatv(n, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New(procs, trace.DefaultCapacity)
	blocks := par.Blocks()
	sess, err := NewSession(par.Env, blocks, SessionConfig{Procs: procs, Domain: par.All, Block: 4, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	var resid []float64
	if err := sess.Run(tomcatvSession(par, blocks, iter+1, nil, &resid)); err != nil {
		t.Fatal(err)
	}
	var sweepStart int64 = -1
	for _, ev := range rec.Events() {
		if ev.Rank == 1 && ev.Kind == trace.KindCompute && ev.Wave == 2*iter && (sweepStart < 0 || ev.Start < sweepStart) {
			sweepStart = ev.Start
		}
	}
	var xchg trace.Event
	for _, ev := range rec.Events() {
		if ev.Rank == 1 && ev.Kind == trace.KindExchange && ev.End <= sweepStart && ev.Start >= xchg.Start {
			xchg = ev
		}
	}
	if sweepStart < 0 || xchg.End == 0 {
		t.Fatalf("no exchange before iteration %d's forward sweep in the clean trace", iter)
	}
	// One-sided: inside the exchange rank 1 takes rows from rank 0 and passes
	// its own up to rank 2; nothing travels down.
	tag, found := 0, false
	for _, ev := range rec.Events() {
		if ev.Rank != 1 || ev.Start < xchg.Start || ev.End > xchg.End {
			continue
		}
		switch {
		case ev.Kind == trace.KindRecv && ev.Peer == 0 && !found:
			tag, found = ev.Tag, true
		case ev.Kind == trace.KindRecv && ev.Peer != 0, ev.Kind == trace.KindSend && ev.Peer != 2:
			t.Fatalf("the refresh before the forward sweep moved rows down: %v with rank %d", ev.Kind, ev.Peer)
		}
	}
	if !found {
		t.Fatal("the exchange event holds no receive from rank 0")
	}
	return tag
}

// TestSessionCrashRecovery runs the whole Tomcatv program — stencils, both
// wavefront sweeps, reductions — with a deterministic rank crash and
// session checkpointing, and demands the recovered run match serial
// execution bit-for-bit, residual history included. The crashes sit around
// the one-sided refresh that precedes iteration 1's forward sweep (aa's
// boundary row, rank i to rank i+1, nothing back): on the rank that
// received it, before its first tile; on the rank that only sent it; and
// inside it, on the receive itself. With a snapshot at every cut point the
// restart re-executes the refresh — the receive replayed from the comm
// layer's retention, the send suppressed — and with one every third the
// restart begins operations earlier. The last rows run the session twice
// and crash inside the refresh of the second Run, over the in-process and
// the socket transport: the restarted rank re-binds the schedules, kernels
// and reduction operands the session kept from the first Run to its own
// fresh fields. In one row the forward block reads a scalar the body changes
// before the crash: the restarted rank replays SetScalar as it
// fast-forwards.
func TestSessionCrashRecovery(t *testing.T) {
	const n, iters, procs = 26, 3, 4
	refreshTag := refreshRecvTag(t, n, procs, 1)
	unix := comm.TransportConfig{Kind: comm.TransportUnix}
	for _, c := range []struct {
		name      string
		rule      fault.Rule
		every     int
		runs      int // the crash is in the last; 0 means 1
		transport comm.TransportConfig
		w         []float64 // w per iteration (keptProgram); nil: plain Tomcatv
		workers   int       // > 0: the task DAG at this many workers
	}{
		// Rank 1's first boundary receive of the third sweep it enters
		// (iteration 1's forward sweep): the refresh is behind it, no tile
		// has run.
		{name: "receiver, before its first tile",
			rule: fault.Rule{Op: fault.OpRecv, Rank: 1, Peer: 0, Tag: fault.Any, Wave: 3, Action: fault.ActCrash}, every: 3},
		{name: "receiver, every cut point",
			rule: fault.Rule{Op: fault.OpRecv, Rank: 1, Peer: 0, Tag: fault.Any, Wave: 3, Action: fault.ActCrash}, every: 1},
		// The same crash with w changed at the top of every iteration, so
		// once before it: the restarted rank must resume with iteration 1's
		// value.
		{name: "receiver, after a scalar changed",
			rule:  fault.Rule{Op: fault.OpRecv, Rank: 1, Peer: 0, Tag: fault.Any, Wave: 3, Action: fault.ActCrash},
			every: 1, w: []float64{1.125, 0.875, 1.5}},
		// Rank 0 heads that sweep: it sent aa's row up, received nothing, and
		// crashes on its first boundary send.
		{name: "sender, before its first boundary message",
			rule: fault.Rule{Op: fault.OpSend, Rank: 0, Peer: 1, Tag: fault.Any, Wave: 3, Action: fault.ActCrash}, every: 1},
		// The refresh message itself.
		{name: "receiver, inside the refresh",
			rule: fault.Rule{Op: fault.OpRecv, Rank: 1, Peer: 0, Tag: refreshTag, Action: fault.ActCrash}, every: 1},
		// The same message of the second Run: tags count per Run, so the
		// first Run's passes once.
		{name: "second Run, inside the refresh, chan",
			rule:  fault.Rule{Op: fault.OpRecv, Rank: 1, Peer: 0, Tag: refreshTag, After: 1, Action: fault.ActCrash},
			every: 1, runs: 2},
		{name: "second Run, inside the refresh, unix",
			rule:  fault.Rule{Op: fault.OpRecv, Rank: 1, Peer: 0, Tag: refreshTag, After: 1, Action: fault.ActCrash},
			every: 1, runs: 2, transport: unix},
		// On the task DAG the second Run's restarted rank re-binds the tile
		// graphs the first Run built; it builds none.
		{name: "second Run, inside the refresh, task DAG",
			rule:  fault.Rule{Op: fault.OpRecv, Rank: 1, Peer: 0, Tag: refreshTag, After: 1, Action: fault.ActCrash},
			every: 1, runs: 2, workers: 2},
		{name: "receiver, before its first tile, task DAG",
			rule: fault.Rule{Op: fault.OpRecv, Rank: 1, Peer: 0, Tag: fault.Any, Wave: 3, Action: fault.ActCrash}, every: 3,
			workers: 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			runs := max(c.runs, 1)
			program := func() (*workload.Tomcatv, []*scan.Block) {
				if c.w != nil {
					return keptProgram(t, n, c.w[0])
				}
				tom, err := workload.NewTomcatv(n, field.RowMajor)
				if err != nil {
					t.Fatal(err)
				}
				return tom, tom.Blocks()
			}
			ref, refBlocks := program()
			var refResid []float64
			for i := 0; i < runs*iters; i++ {
				if c.w != nil {
					ref.Env.Scalars["w"] = c.w[i%iters]
				}
				for _, b := range refBlocks {
					if err := scan.Exec(b, ref.Env, scan.ExecOptions{}); err != nil {
						t.Fatal(err)
					}
				}
				refResid = append(refResid, ref.ResidualMax())
			}
			refResid = refResid[len(refResid)-iters:] // the last Run's
			par, blocks := program()
			inj, err := fault.New(fault.Plan{Rules: []fault.Rule{c.rule}})
			if err != nil {
				t.Fatal(err)
			}
			cfg := SessionConfig{
				Procs: procs, Domain: par.All, Block: 4,
				Faults:     inj,
				Transport:  c.transport,
				Checkpoint: &CheckpointConfig{Every: c.every},
			}
			if c.workers > 0 {
				cfg.Scheduler, cfg.Workers = scan.SchedTaskDAG, c.workers
			}
			sess, err := NewSession(par.Env, blocks, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			var parResid []float64
			for run := 1; run <= runs; run++ {
				if err := sess.Run(tomcatvSession(par, blocks, iters, c.w, &parResid)); err != nil {
					t.Fatalf("Run %d: crash did not recover: %v", run, err)
				}
				if fired := inj.Fired(); (fired != 0) != (run == runs) {
					t.Fatalf("after Run %d of %d the crash rule fired %d times; it must fire in the last", run, runs, fired)
				}
			}
			for _, name := range workload.TomcatvArrays {
				if d := par.Env.Arrays[name].MaxAbsDiff(par.All, ref.Env.Arrays[name]); d != 0 {
					t.Errorf("%s differs from serial by %g after recovery", name, d)
				}
			}
			if len(parResid) != len(refResid) {
				t.Fatalf("recovered run produced %d residuals, want %d", len(parResid), len(refResid))
			}
			for i := range refResid {
				if parResid[i] != refResid[i] {
					t.Errorf("iter %d: residual %g != %g", i, parResid[i], refResid[i])
				}
			}
			if c.workers > 0 {
				_, _, builds := keptCounts(sess, blocks)
				for i := range builds {
					for r, got := range builds[i] {
						if got != 1 {
							t.Errorf("leaf %d, rank %d: task graph built %d times over %d Runs and a restart, want 1", i, r, got, runs)
						}
					}
				}
			}
		})
	}
}

// TestRestoreSidelessDirtyMarks pins the mark encoding: 1 — all a snapshot
// from before marks had sides could hold — decodes as both, one side alone
// as itself, anything else is refused. (Reading 1 as both is only sound
// when every rank restores from such a snapshot; see dirtyMarkVal. What a
// live run needs is the next test: one-sided marks that come back exactly.)
func TestRestoreSidelessDirtyMarks(t *testing.T) {
	for v, want := range map[float64]uint8{1: dirtyBoth, 2: dirtyNeg, 3: dirtyPos} {
		if got, ok := dirtyMarkSides(v); !ok || got != want {
			t.Errorf("mark value %g decodes to sides %b (ok=%v), want %b", v, got, ok, want)
		}
		if back := dirtyMarkVal(want); back != v {
			t.Errorf("sides %b encode as %g, want %g", want, back, v)
		}
	}
	for _, v := range []float64{0, 4, -1, 1.5, math.NaN()} {
		if _, ok := dirtyMarkSides(v); ok {
			t.Errorf("mark value %g was accepted", v)
		}
	}
}

// restoreSpy counts the one-sided dirty marks in snapshots a restart read.
type restoreSpy struct {
	ckpt.Store
	oneSided atomic.Int64
}

func (s *restoreSpy) Latest(rank int) (*ckpt.Snapshot, error) {
	snap, err := s.Store.Latest(rank)
	if snap != nil {
		for i, name := range snap.Names {
			if strings.HasPrefix(name, ckTagDirty) && snap.Vals[i] != 1 {
				s.oneSided.Add(1)
			}
		}
	}
	return snap, err
}

// TestRestoreKeepsDirtySides: a restarted rank's marks must equal its live
// peers', side for side. The program writes a, sweeps north to south reading
// a@north (which refreshes a's neg halos and leaves a dirty on pos alone),
// then reads a@north again with no write in between: clean, so no rank
// refreshes. Rank 1 crashes inside the sweep and restores from a snapshot
// cut after the refresh. Had its mark for a come back as both, it alone
// would send and await refresh rows before the last block, against peers
// that skip them, and the run would stall or go wrong.
func TestRestoreKeepsDirtySides(t *testing.T) {
	const n, procs = 18, 3
	bounds, inner := grid.Square(2, 0, n+1), grid.Square(2, 1, n)
	newEnv := func() *expr.MapEnv {
		env := &expr.MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{}}
		for k, name := range []string{"a", "b", "c"} {
			f := field.MustNew(name, bounds, field.RowMajor)
			f.FillFunc(bounds, func(p grid.Point) float64 { return float64(k+1) + 0.125*float64(p[0]) + 0.001*float64(p[1]) })
			env.Arrays[name] = f
		}
		return env
	}
	ref := expr.Ref
	bump := scan.NewPlain(inner, scan.Stmt{LHS: ref("a"), RHS: expr.Binary{Op: expr.Add, L: ref("a"), R: ref("b")}})
	down := scan.NewScan(inner, scan.Stmt{LHS: ref("c"), RHS: expr.Binary{Op: expr.Add,
		L: expr.MulN(expr.Const(0.5), ref("c").At(grid.North).Prime()), R: ref("a").At(grid.North)}})
	again := scan.NewPlain(inner, scan.Stmt{LHS: ref("b"), RHS: expr.Binary{Op: expr.Sub, L: ref("c"), R: ref("a").At(grid.North)}})
	blocks := []*scan.Block{bump, down, again}

	want := refreshFamily{"keeps-sides", newEnv(), bounds, blocks, 2}
	serialProgram(t, want)

	// Rank 1's third boundary receive of the first sweep.
	inj := fault.MustNew(fault.Plan{Rules: []fault.Rule{{
		Op: fault.OpRecv, Rank: 1, Peer: 0, Tag: fault.Any, Wave: 1, After: 2, Action: fault.ActCrash}}})
	spy := &restoreSpy{Store: ckpt.NewMemStore()}
	got := refreshFamily{"keeps-sides", newEnv(), bounds, blocks, 2}
	sess, err := NewSession(got.env, blocks, SessionConfig{
		Procs: procs, Domain: bounds, Block: 4, Faults: inj,
		Checkpoint: &CheckpointConfig{Every: 1, Store: spy},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pl := sess.plans[again]; len(pl.refresh[sideNeg]) != 1 || len(pl.refresh[sidePos]) != 0 {
		t.Fatalf("the last block reads neg %v pos %v from halos, want a's neg side only", pl.refresh[sideNeg], pl.refresh[sidePos])
	}
	runProgram(t, sess, got, nil)
	if inj.Fired() == 0 {
		t.Fatal("crash rule never fired")
	}
	if spy.oneSided.Load() == 0 {
		t.Fatal("the restart read no one-sided dirty mark; the drill proves nothing")
	}
	if diff := firstBitDifference(got.env, want.env); diff != "" {
		t.Errorf("after restoring one-sided marks: %s", diff)
	}
}

// capturedTagStore hands a restarting rank its snapshot with one more entry
// under the "c:" tag, where snapshots recorded the scalar values a rank's
// kernels had captured while a rank refused to change them.
type capturedTagStore struct{ ckpt.Store }

func (s capturedTagStore) Latest(rank int) (*ckpt.Snapshot, error) {
	snap, err := s.Store.Latest(rank)
	if snap != nil {
		c := *snap
		c.Names = append(slices.Clone(snap.Names), "c:w")
		c.Vals = append(slices.Clone(snap.Vals), 1.125)
		snap = &c
	}
	return snap, err
}

// TestRestoreRefusesCapturedScalarTag: a rank follows its scalars and keeps
// no record of the values its kernels were lowered with, so restore refuses
// a snapshot that still carries a "c:" entry with its unknown-tag error, and
// the run fails instead of restarting from it.
func TestRestoreRefusesCapturedScalarTag(t *testing.T) {
	tom, blocks := keptProgram(t, 26, 1.125)
	inj := fault.MustNew(fault.Plan{Rules: []fault.Rule{{
		Op: fault.OpRecv, Rank: 1, Peer: 0, Tag: fault.Any, Wave: 1, After: 2, Action: fault.ActCrash}}})
	sess, err := NewSession(tom.Env, blocks, Config{
		Procs: 3, Domain: tom.All, Block: 4, Faults: inj,
		Checkpoint: &CheckpointConfig{Every: 1, Store: capturedTagStore{ckpt.NewMemStore()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var resid float64
	err = sess.Run(keptBody(tom, blocks, &resid))
	if inj.Fired() == 0 {
		t.Fatal("crash rule never fired; the run proves nothing")
	}
	if err == nil || !strings.Contains(err.Error(), `unknown tag "c:"`) {
		t.Errorf("run returned %v, want the snapshot refused for its \"c:\" entry", err)
	}
}

// TestSessionCrashRecoveryReduceReplay pins the fast-forward reduce log:
// crash a rank after it has completed reductions, and demand the replayed
// results reproduce the same residual history a fault-free session yields.
func TestSessionCrashRecoveryReduceReplay(t *testing.T) {
	// n = 26 keeps every rank's fold on the closure; at n = 72 the portions
	// are large enough to fold on the span tape.
	for _, n := range []int{26, 72} {
		crashRecoveryReduceReplay(t, n)
	}
}

func crashRecoveryReduceReplay(t *testing.T, n int) {
	iters, procs := 3, 2
	par, err := workload.NewTomcatv(n, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := workload.NewTomcatv(n, field.RowMajor)
	var refResid []float64
	for i := 0; i < iters; i++ {
		if _, err := ref.Step(); err != nil {
			t.Fatal(err)
		}
		refResid = append(refResid, ref.ResidualMax())
	}

	// Crash rank 1 in the final iteration's forward sweep (wave 5 of 6):
	// by then two full iterations of reductions sit in its reduce log.
	inj, err := fault.New(fault.Plan{Rules: []fault.Rule{{
		Op: fault.OpRecv, Rank: 1, Peer: 0, Tag: fault.Any,
		Wave: 5, Action: fault.ActCrash,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	blocks := par.Blocks()
	sess, err := NewSession(par.Env, blocks, SessionConfig{
		Procs: procs, Domain: par.All, Block: 4,
		Faults:     inj,
		Checkpoint: &CheckpointConfig{Every: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	absRx := expr.Call{Fn: expr.Abs, Args: []expr.Node{expr.Ref("rx")}}
	absRy := expr.Call{Fn: expr.Abs, Args: []expr.Node{expr.Ref("ry")}}
	// resid[r][i] is rank r's view of iteration i's residual; every rank
	// must agree, crashed-and-replayed rank included.
	resid := make([][]float64, procs)
	for r := range resid {
		resid[r] = make([]float64, iters)
	}
	err = sess.Run(func(r *Rank) error {
		for i := 0; i < iters; i++ {
			for _, b := range blocks {
				if err := r.Exec(b); err != nil {
					return err
				}
			}
			vx, err := r.Reduce(scan.MaxReduce, par.Interior, absRx)
			if err != nil {
				return err
			}
			vy, err := r.Reduce(scan.MaxReduce, par.Interior, absRy)
			if err != nil {
				return err
			}
			resid[r.ID()][i] = math.Max(vx, vy)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("crash did not recover: %v", err)
	}
	if inj.Fired() == 0 {
		t.Fatal("crash rule never fired")
	}
	for r := 0; r < procs; r++ {
		for i := range refResid {
			if resid[r][i] != refResid[i] {
				t.Errorf("n=%d rank %d iter %d: residual %g != %g", n, r, i, resid[r][i], refResid[i])
			}
		}
	}
}

// midSweepProgram is one program of TestSessionMidSweepRecovery's table: a
// session body, the crash that interrupts it inside a sweep, and the serial
// oracle it must still match.
type midSweepProgram struct {
	env    *expr.MapEnv
	domain grid.Region
	blocks []*scan.Block
	body   func(r *Rank) error
	// crash fires on the third boundary message of the sweep it names;
	// wave is that sweep's index in the trace (which counts from 0).
	crash fault.Rule
	wave  int
	// check compares what the recovered run produced with serial execution.
	check func(t *testing.T)
}

// tomcatvMidSweep is three Tomcatv iterations with their residual
// reductions; rank 1 crashes in the second forward sweep (each iteration
// runs the forward then the backward sweep, so that is wave 3).
func tomcatvMidSweep(t *testing.T, n int) midSweepProgram {
	const iters = 3
	ref, err := workload.NewTomcatv(n, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	var refResid []float64
	for i := 0; i < iters; i++ {
		if _, err := ref.Step(); err != nil {
			t.Fatal(err)
		}
		refResid = append(refResid, ref.ResidualMax())
	}
	absRx := expr.Call{Fn: expr.Abs, Args: []expr.Node{expr.Ref("rx")}}
	absRy := expr.Call{Fn: expr.Abs, Args: []expr.Node{expr.Ref("ry")}}
	par, _ := workload.NewTomcatv(n, field.RowMajor)
	blocks := par.Blocks()
	resid := make([]float64, iters)
	return midSweepProgram{
		env: par.Env, domain: par.All, blocks: blocks,
		body: func(r *Rank) error {
			for i := 0; i < iters; i++ {
				for _, b := range blocks {
					if err := r.Exec(b); err != nil {
						return err
					}
				}
				vx, err := r.Reduce(scan.MaxReduce, par.Interior, absRx)
				if err != nil {
					return err
				}
				vy, err := r.Reduce(scan.MaxReduce, par.Interior, absRy)
				if err != nil {
					return err
				}
				if r.ID() == 1 {
					resid[i] = math.Max(vx, vy)
				}
			}
			return nil
		},
		crash: fault.Rule{Op: fault.OpRecv, Rank: 1, Peer: 0, Tag: fault.Any, Wave: 3, After: 2, Action: fault.ActCrash},
		wave:  2,
		check: func(t *testing.T) {
			for _, name := range workload.TomcatvArrays {
				if d := par.Env.Arrays[name].MaxAbsDiff(par.All, ref.Env.Arrays[name]); d != 0 {
					t.Errorf("%s differs from serial by %g after recovery", name, d)
				}
			}
			for i := range refResid {
				if resid[i] != refResid[i] {
					t.Errorf("iter %d: the crashed rank saw residual %g, serial %g", i, resid[i], refResid[i])
				}
			}
		},
	}
}

// groupMidSweep is the counter-propagating octant pair run as one
// ExecGroup, then the combine pass; rank 1 crashes inside the group's
// second block, whose wave travels from the high ranks down (so its
// upstream peer is rank 2). Each block of a group is its own checkpoint
// operation: the first must not be re-executed, the second must resume.
func groupMidSweep(t *testing.T, n int) midSweepProgram {
	w, err := workload.NewMultiOctant(n, 2, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	oracle := w.Reference()
	return midSweepProgram{
		env: w.Env, domain: w.All, blocks: w.Blocks(),
		body: func(r *Rank) error {
			if err := r.ExecGroup(w.OctantBlocks()); err != nil {
				return err
			}
			return r.Exec(w.CombineBlock())
		},
		crash: fault.Rule{Op: fault.OpRecv, Rank: 1, Peer: 2, Tag: fault.Any, Wave: 2, After: 2, Action: fault.ActCrash},
		wave:  1,
		check: func(t *testing.T) {
			for _, name := range workload.MultiOctantArrays(2) {
				if d := w.Env.Arrays[name].MaxAbsDiff(w.Inner, oracle[name]); d != 0 {
					t.Errorf("%s differs from the reference by %g after recovery", name, d)
				}
			}
		},
	}
}

// TestSessionMidSweepRecovery crashes a rank inside a wavefront sweep of a
// multi-block program — rank 1, on the third boundary message of the sweep
// — with a snapshot every 2 cut points. Under the static schedule a cut
// point lies at the top of every tile, so the restart must resume from a
// snapshot cut inside that very sweep rather than re-run it from its start;
// the task DAG runs a sweep in one piece and restarts it whole. The result
// must match serial execution bit for bit either way, also when the crashed
// sweep is the second block of an ExecGroup.
func TestSessionMidSweepRecovery(t *testing.T) {
	const n, procs = 26, 3
	for _, c := range []struct {
		name    string
		prog    func(*testing.T, int) midSweepProgram
		sched   scan.Scheduler
		midTile bool // the restore must resume inside the crashed sweep
	}{
		{"static", tomcatvMidSweep, scan.SchedStatic, true},
		{"taskdag", tomcatvMidSweep, scan.SchedTaskDAG, false},
		{"group/static", groupMidSweep, scan.SchedStatic, true},
		{"group/taskdag", groupMidSweep, scan.SchedTaskDAG, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			prog := c.prog(t, n)
			inj := fault.MustNew(fault.Plan{Rules: []fault.Rule{prog.crash}})
			rec := trace.New(procs*3, trace.DefaultCapacity)
			cfg := SessionConfig{
				Procs: procs, Domain: prog.domain, Block: 4,
				Scheduler: c.sched, Workers: 2,
				Faults: inj, Trace: rec,
				Checkpoint: &CheckpointConfig{Every: 2},
			}
			sess, err := NewSession(prog.env, prog.blocks, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Run(prog.body); err != nil {
				t.Fatalf("crash did not recover: %v", err)
			}
			if inj.Fired() == 0 {
				t.Fatal("crash rule never fired; the run proves nothing")
			}
			prog.check(t)
			restores := 0
			for _, ev := range rec.Events() {
				if ev.Kind != trace.KindRestore {
					continue
				}
				restores++
				if c.midTile && (ev.Rank != 1 || ev.Wave != prog.wave || ev.Tile < 1) {
					t.Errorf("restore on rank %d resumed at wave %d tile %d, want rank 1 inside wave %d (tile > 0)",
						ev.Rank, ev.Wave, ev.Tile, prog.wave)
				}
			}
			if restores != 1 {
				t.Errorf("traced %d restores, want 1", restores)
			}
		})
	}
}
