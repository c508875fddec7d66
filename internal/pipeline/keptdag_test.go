package pipeline

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"wavefront/internal/field"
	"wavefront/internal/scan"
	"wavefront/internal/workload"
)

// goroutinesIn returns the IDs of the goroutines whose stack holds one of
// frames and that others does not hold.
func goroutinesIn(frames []string, others map[string]bool) map[string]bool {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for ; n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	ids := map[string]bool{}
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		f := strings.Fields(g)
		if len(f) < 2 || others[f[1]] {
			continue
		}
		for _, frame := range frames {
			if strings.Contains(g, frame) {
				ids[f[1]] = true
			}
		}
	}
	return ids
}

// poolWorkers returns the IDs of the goroutines running a task-DAG pool's
// worker loop that others does not hold.
func poolWorkers(others map[string]bool) map[string]bool {
	return goroutinesIn([]string{"taskdag.(*pool).loop"}, others)
}

// settleGoroutines waits until at most want goroutines and none that find
// reports but others' are left, and fails with what it saw when two seconds
// pass first: a goroutine that returned is reaped a moment after its stop.
// With collect the loop also collects garbage, which stops the goroutines
// of an owner that became unreachable; without it nothing but a Close can
// have stopped them (the loop allocates nothing until the count is down, so
// no collection runs a finalizer for it).
func settleGoroutines(t *testing.T, find func(map[string]bool) map[string]bool, others map[string]bool, want int, what string, collect bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if runtime.NumGoroutine() <= want && len(find(others)) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d of the watched goroutines and %d in all left, want none and at most %d",
				what, len(find(others)), runtime.NumGoroutine(), want)
		}
		if collect {
			runtime.GC()
		}
	}
}

// TestTaskDAGKeptAcrossRuns: a task-DAG session builds each (rank, block)
// tile graph with its worker kernels once and keeps it: a warm Run re-binds
// the same graph, a changed scalar rebuilds the graphs of the block that
// reads it once, and a Retune — the task DAG cuts the portion, not the
// tile width — rebuilds nothing. Every Run is bit for bit what serial
// Prepare/Run makes of the same sequence.
func TestTaskDAGKeptAcrossRuns(t *testing.T) {
	const n, block, procs = 40, 8, 2
	tom, blocks := keptProgram(t, n, 1.125)
	sess, err := NewSession(tom.Env, blocks, Config{Procs: procs, Domain: tom.All, Block: block,
		Scheduler: scan.SchedTaskDAG, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	serial, serialBlocks := keptProgram(t, n, 1.125)
	prepared := make([]*scan.Prepared, len(serialBlocks))
	for i, b := range serialBlocks {
		if prepared[i], err = scan.Prepare(b, serial.Env, scan.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	fwd := blocks[2] // the block that reads w
	var graphs map[*scan.Block][]*scan.TaskGraph
	for _, step := range []struct {
		name      string
		between   func()
		fwdBuilds int  // the forward block's graphs built so far
		fwdFresh  bool // this Run built them
	}{
		{"first", func() {}, 1, true},
		{"warm", func() {}, 1, false},
		{"scalar", func() { tom.Env.Scalars["w"], serial.Env.Scalars["w"] = 0.875, 0.875 }, 2, true},
		{"retune", func() { sess.Retune(5) }, 2, false},
	} {
		step.between()
		var resid float64
		if err := sess.Run(keptBody(tom, blocks, &resid)); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		for i, p := range prepared {
			if err := p.Run(serialBlocks[i].Region); err != nil {
				t.Fatal(err)
			}
		}
		want, err := scan.Reduce(scan.MaxReduce, serial.Interior, residOperand(), serial.Env)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(resid) != math.Float64bits(want) {
			t.Errorf("%s: residual %v, serial %v", step.name, resid, want)
		}
		if err := sameArrays(tom, serial); err != nil {
			t.Errorf("%s: the Run differs from serial Prepare/Run: %v", step.name, err)
		}
		leaves, _, builds := keptCounts(sess, blocks)
		now := map[*scan.Block][]*scan.TaskGraph{}
		for i, leaf := range leaves {
			for r := range sess.plans[leaf].ranks {
				dag := sess.plans[leaf].ranks[r].dag
				if dag == nil {
					t.Fatalf("%s: leaf %d, rank %d keeps no task graph", step.name, i, r)
				}
				now[leaf] = append(now[leaf], dag)
				wantBuilds, fresh := 1, step.name == "first"
				if leaf == fwd {
					wantBuilds, fresh = step.fwdBuilds, step.fwdFresh
				}
				if builds[i][r] != wantBuilds {
					t.Errorf("%s: leaf %d, rank %d: graph built %d times, want %d", step.name, i, r, builds[i][r], wantBuilds)
				}
				if graphs != nil && (graphs[leaf][r] != dag) != fresh {
					t.Errorf("%s: leaf %d, rank %d: new graph %v, want %v", step.name, i, r, graphs[leaf][r] != dag, fresh)
				}
			}
		}
		graphs = now
	}
}

// TestTaskDAGWarmRunStartsNoGoroutine: a one-rank task-DAG session at four
// workers starts its pool's three goroutines in the first Run's first Exec
// and parks them between Runs; a warm Run's Execs start none, the first
// Run's workers are the ones still parked after them, and the rank runs on
// the goroutine it ran on in the first Run (TestStaticWarmRunStartsNoGoroutine
// holds the static schedule's ranks to the same).
func TestTaskDAGWarmRunStartsNoGoroutine(t *testing.T) {
	tom, err := workload.NewTomcatv(64, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	fwd, bwd := tom.ForwardBlock(), tom.BackwardBlock()
	sess, err := NewSession(tom.Env, []*scan.Block{fwd, bwd},
		Config{Procs: 1, Domain: tom.All, Block: 16, Scheduler: scan.SchedTaskDAG, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var started, after map[string]bool
	var rank string
	body := func(r *Rank) error {
		rank = goid()
		before := poolWorkers(nil)
		if err := r.Exec(fwd); err != nil {
			return err
		}
		if err := r.Exec(bwd); err != nil {
			return err
		}
		started, after = poolWorkers(before), poolWorkers(nil)
		return nil
	}
	if err := sess.Run(body); err != nil {
		t.Fatal(err)
	}
	if len(started) != 3 {
		t.Fatalf("the first Run's Execs started %d pool workers, want 3", len(started))
	}
	first, firstRank := started, rank
	for run := 0; run < 3; run++ {
		if err := sess.Run(body); err != nil {
			t.Fatal(err)
		}
		if len(started) != 0 {
			t.Errorf("warm Run %d: its Execs started %d pool workers", run, len(started))
		}
		if rank != firstRank {
			t.Errorf("warm Run %d: the rank ran on goroutine %s, the first Run's on %s", run, rank, firstRank)
		}
		for id := range first {
			if !after[id] {
				t.Errorf("warm Run %d: the first Run's pool worker %s is gone", run, id)
			}
		}
	}
}

// TestTaskDAGSessionPoolsStopAtClose: no pool goroutine outlives
// Session.Close; a Run after Close starts the pools again and still
// computes what a fresh session does, and the one-shot Run, a session it
// closes itself, leaves none behind.
func TestTaskDAGSessionPoolsStopAtClose(t *testing.T) {
	base, others := runtime.NumGoroutine(), poolWorkers(nil)
	tom, blocks := keptProgram(t, 40, 1.125)
	cfg := Config{Procs: 2, Domain: tom.All, Block: 8, Scheduler: scan.SchedTaskDAG, Workers: 3}
	sess, err := NewSession(tom.Env, blocks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var resid float64
	if err := sess.Run(keptBody(tom, blocks, &resid)); err != nil {
		t.Fatal(err)
	}
	if got := len(poolWorkers(others)); got != 2*2 {
		t.Fatalf("%d pool workers parked after a Run, want the two ranks' 2 each", got)
	}
	sess.Close()
	settleGoroutines(t, poolWorkers, others, base, "after Close", false)

	fresh, freshBlocks := keptProgram(t, 40, 1.125)
	for name, f := range tom.Env.Arrays {
		copy(fresh.Env.Arrays[name].Data(), f.Data())
	}
	freshSess, err := NewSession(fresh.Env, freshBlocks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var freshResid float64
	if err := freshSess.Run(keptBody(fresh, freshBlocks, &freshResid)); err != nil {
		t.Fatal(err)
	}
	freshSess.Close()
	if err := sess.Run(keptBody(tom, blocks, &resid)); err != nil {
		t.Fatalf("Run after Close: %v", err)
	}
	if err := sameArrays(tom, fresh); err != nil {
		t.Errorf("Run after Close differs from a fresh session's: %v", err)
	}
	if math.Float64bits(resid) != math.Float64bits(freshResid) {
		t.Errorf("Run after Close: residual %v, a fresh session's %v", resid, freshResid)
	}
	if got := len(poolWorkers(others)); got != 2*2 {
		t.Fatalf("%d pool workers parked after a Run after Close, want the two ranks' 2 each", got)
	}
	sess.Close()
	settleGoroutines(t, poolWorkers, others, base, "after the second Close", false)

	if _, err := Run(tom.ForwardBlock(), tom.Env, Config{Procs: 2, Block: 8, Scheduler: scan.SchedTaskDAG, Workers: 3}); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, poolWorkers, others, base, "after a one-shot Run", false)
}

// TestTaskDAGDroppedSessionStopsPools: a session that becomes unreachable
// without Close has its ranks' pools stopped once the collector finds it —
// the workers hold the pool's state, never the session or the handle.
func TestTaskDAGDroppedSessionStopsPools(t *testing.T) {
	base, others := runtime.NumGoroutine(), poolWorkers(nil)
	func() {
		tom, blocks := keptProgram(t, 40, 1.125)
		sess, err := NewSession(tom.Env, blocks, Config{Procs: 2, Domain: tom.All, Block: 8,
			Scheduler: scan.SchedTaskDAG, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		var resid float64
		if err := sess.Run(keptBody(tom, blocks, &resid)); err != nil {
			t.Fatal(err)
		}
		if got := len(poolWorkers(others)); got != 2*2 {
			t.Fatalf("%d pool workers parked after a Run, want the two ranks' 2 each", got)
		}
	}()
	settleGoroutines(t, poolWorkers, others, base, "after the session became unreachable", true)
}
