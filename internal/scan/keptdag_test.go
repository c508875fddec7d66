package scan

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"wavefront/internal/expr"
	"wavefront/internal/grid"
)

// poolWorkers returns the IDs of the goroutines running a task-DAG pool's
// worker loop that others does not hold.
func poolWorkers(others map[string]bool) map[string]bool {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for ; n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	ids := map[string]bool{}
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if f := strings.Fields(g); len(f) > 1 && strings.Contains(g, "taskdag.(*pool).loop") && !others[f[1]] {
			ids[f[1]] = true
		}
	}
	return ids
}

// settleGoroutines waits until at most want goroutines and no pool worker
// but others' are left, and fails with what it saw when two seconds pass
// first: a worker that returned is reaped a moment after Stop. With
// collect the loop also collects garbage, which stops the pool of an owner
// that became unreachable; without it nothing but a Close can have stopped
// them (the loop allocates nothing until the count is down, so no
// collection runs a finalizer for it).
func settleGoroutines(t *testing.T, others map[string]bool, want int, what string, collect bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if runtime.NumGoroutine() <= want && len(poolWorkers(others)) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d pool workers and %d goroutines left, want none and at most %d",
				what, len(poolWorkers(others)), runtime.NumGoroutine(), want)
		}
		if collect {
			runtime.GC()
		}
	}
}

// TestTaskDAGPreparedKeepsItsPool: under SchedTaskDAG a Prepared starts its
// pool's workers in the first Run and keeps them with the tile graph: a
// later Run starts no goroutine, one over another region re-cuts the same
// graph, every Run is bit-identical to a static Exec, and a warm Run over
// an unchanged region allocates nothing. Close retires the workers, a Run
// after Close starts them again, and a one-shot Exec leaves none behind.
func TestTaskDAGPreparedKeepsItsPool(t *testing.T) {
	const n = 64
	base, others := runtime.NumGoroutine(), poolWorkers(nil)
	// Unlike schedTestBlock's, this sweep is no fixed point of itself: a
	// Run over a region other than the one asked for shows.
	a := expr.Ref("a")
	b := NewScan(grid.Square(2, 1, n), Stmt{LHS: a, RHS: expr.AddN(
		expr.MulN(expr.Const(0.5), a),
		expr.MulN(expr.Const(0.25), a.At(grid.Direction{-1, 0}).Prime()),
		expr.MulN(expr.Const(0.25), a.At(grid.Direction{0, -1}).Prime()),
	)})
	env, ref := schedTestEnv(n), schedTestEnv(n)
	opt := ExecOptions{Scheduler: SchedTaskDAG, Workers: 3}
	p, err := Prepare(b, env, opt)
	if err != nil {
		t.Fatal(err)
	}
	var dag *TaskGraph
	for i, region := range []grid.Region{b.Region, b.Region, grid.Square(2, 1, n/2), b.Region} {
		before := poolWorkers(nil)
		if err := p.Run(region); err != nil {
			t.Fatal(err)
		}
		started := len(poolWorkers(before))
		if err := Exec(NewScan(region, b.Stmts...), ref, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
		got, want := env.Arrays["a"].Data(), ref.Arrays["a"].Data()
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("Run %d over %v: a[%d] = %v, static Exec %v", i, region, k, got[k], want[k])
			}
		}
		switch {
		case i == 0 && started != 2:
			t.Errorf("the first Run started %d goroutines, want the pool's 2", started)
		case i > 0 && started > 0:
			t.Errorf("Run %d started %d goroutines", i, started)
		case i == 0:
			dag = p.parts[0].dag
		case p.parts[0].dag != dag:
			t.Errorf("Run %d over %v built a new task graph", i, region)
		}
	}
	if a := testing.AllocsPerRun(20, func() {
		if err := p.Run(b.Region); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("a warm task-DAG Run allocates %.0f times, want 0", a)
	}
	p.Close()
	settleGoroutines(t, others, base, "after Close", false)
	if err := p.Run(b.Region); err != nil {
		t.Fatalf("Run after Close: %v", err)
	}
	p.Close()
	settleGoroutines(t, others, base, "after the second Close", false)
	if err := Exec(b, env, opt); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, others, base, "after a task-DAG Exec", false)
}

// TestTaskDAGDroppedPreparedStopsItsPool: a Prepared that becomes
// unreachable without Close has its pool stopped once the collector finds
// it.
func TestTaskDAGDroppedPreparedStopsItsPool(t *testing.T) {
	base, others := runtime.NumGoroutine(), poolWorkers(nil)
	func() {
		b := schedTestBlock(64)
		p, err := Prepare(b, schedTestEnv(64), ExecOptions{Scheduler: SchedTaskDAG, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(b.Region); err != nil {
			t.Fatal(err)
		}
		if got := len(poolWorkers(others)); got != 2 {
			t.Fatalf("%d pool workers parked after a Run, want 2", got)
		}
	}()
	settleGoroutines(t, others, base, "after the Prepared became unreachable", true)
}
