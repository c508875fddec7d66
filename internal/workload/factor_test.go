package workload

import (
	"runtime"
	"testing"
	"time"

	"wavefront/internal/field"
	"wavefront/internal/pipeline"
	"wavefront/internal/scan"
)

// TestFactorMatchesReference: the block program must reproduce the straight-
// loop elimination bit for bit, for both LU and Cholesky, under both engines
// and both schedulers, and the factors must actually factor the matrix. A
// task-DAG Run closes the pools its prepared shapes started: no worker
// outlives it, with or without a collection.
func TestFactorMatchesReference(t *testing.T) {
	base := runtime.NumGoroutine()
	makers := []struct {
		name string
		mk   func(n int, seed int64, layout field.Layout) (*Factor, error)
	}{
		{"lu", NewLU},
		{"cholesky", NewCholesky},
	}
	opts := []struct {
		name string
		opt  scan.ExecOptions
	}{
		{"tape", scan.ExecOptions{Engine: scan.EngineTape}},
		{"closure", scan.ExecOptions{Engine: scan.EngineClosure}},
		{"taskdag-w2", scan.ExecOptions{Scheduler: scan.SchedTaskDAG, Workers: 2}},
		{"taskdag-w4", scan.ExecOptions{Scheduler: scan.SchedTaskDAG, Workers: 4}},
	}
	for _, mk := range makers {
		w, err := mk.mk(16, 5, field.RowMajor)
		if err != nil {
			t.Fatal(err)
		}
		ref := w.Reference()
		for _, o := range opts {
			w.Reset()
			if err := w.Run(o.opt); err != nil {
				t.Fatalf("%s/%s: %v", mk.name, o.name, err)
			}
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatalf("%s/%s: %d goroutines after Run, %d before", mk.name, o.name, runtime.NumGoroutine(), base)
				}
			}
			if d := w.Env.Arrays["a"].MaxAbsDiff(w.All, ref); d != 0 {
				t.Errorf("%s/%s: factored matrix differs from oracle by %g", mk.name, o.name, d)
			}
			if r := w.ResidualMax(); r > 1e-9 {
				t.Errorf("%s/%s: reconstruction residual %g too large", mk.name, o.name, r)
			}
		}
	}
}

// TestFactorSession runs the shrinking elimination program through the
// pipelined session: the trailing regions progressively exclude low ranks,
// so every step past the first rank boundary exercises the empty-portion
// wavefront path, and must still match the oracle bit for bit.
func TestFactorSession(t *testing.T) {
	scheds := []struct {
		name    string
		sched   scan.Scheduler
		workers int
	}{
		{"static", scan.SchedStatic, 0},
		{"taskdag-w2", scan.SchedTaskDAG, 2},
	}
	for _, chol := range []bool{false, true} {
		name, mk := "lu", NewLU
		if chol {
			name, mk = "cholesky", NewCholesky
		}
		ref, err := mk(16, 5, field.RowMajor)
		if err != nil {
			t.Fatal(err)
		}
		oracle := ref.Reference()
		for _, sc := range scheds {
			for _, p := range []int{1, 2, 4} {
				w, _ := mk(16, 5, field.RowMajor)
				sess, err := pipeline.NewSession(w.Env, w.Blocks(), pipeline.SessionConfig{
					Procs: p, Domain: w.All, Block: 4,
					Scheduler: sc.sched, Workers: sc.workers,
				})
				if err != nil {
					t.Fatalf("%s/%s p=%d: %v", name, sc.name, p, err)
				}
				err = sess.Run(func(r *pipeline.Rank) error {
					for _, b := range w.Blocks() {
						if err := r.Exec(b); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Fatalf("%s/%s p=%d: %v", name, sc.name, p, err)
				}
				if d := w.Env.Arrays["a"].MaxAbsDiff(w.All, oracle); d != 0 {
					t.Errorf("%s/%s p=%d: differs from oracle by %g", name, sc.name, p, d)
				}
			}
		}
	}
}

// TestFactorCorruptDependencyCaught is the intentional-break drill for the
// elimination tile graph. Within one k-step every block's dependence is
// one-dimensional, so the decomposer collapses each graph into independent
// band tiles whose counters are already zero — the corruptible dependencies
// in this family are the ones BETWEEN blocks. The drill falsifies exactly
// one such edge: the k=1 trailing update runs before the k=1 pivot-row
// broadcast it depends on, consuming the stale k=0 pivot row. The
// differential oracle must catch it — every later elimination step
// amplifies the stale values, so the corruption cannot pass silently.
func TestFactorCorruptDependencyCaught(t *testing.T) {
	w, err := NewLU(16, 5, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	ref := w.Reference()
	blocks := append([]*scan.Block(nil), w.Blocks()...)
	// Blocks are laid out five per k-step: B1 row snapshot, B2 broadcast,
	// B3 multipliers, B4 trailing update, B5 store. Deferring k=1's B2 to
	// after its B4 violates the broadcast→update dependence.
	const k1 = 5
	blocks[k1+1], blocks[k1+2], blocks[k1+3] = blocks[k1+2], blocks[k1+3], blocks[k1+1]
	for _, b := range blocks {
		if err := scan.Exec(b, w.Env, scan.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if d := w.Env.Arrays["a"].MaxAbsDiff(w.All, ref); d == 0 {
		t.Fatal("violated broadcast dependency produced a bit-identical result; the differential suite cannot catch it")
	}
}
