package pipeline

import (
	"math"
	"testing"

	"wavefront/internal/expr"
	"wavefront/internal/fault"
	"wavefront/internal/field"
	"wavefront/internal/scan"
	"wavefront/internal/workload"
)

// TestSessionCrashRecovery runs the whole Tomcatv program — stencils, both
// wavefront sweeps, reductions — with a deterministic rank crash and
// session checkpointing, and demands the recovered run match serial
// execution bit-for-bit, residual history included.
func TestSessionCrashRecovery(t *testing.T) {
	n, iters, procs := 26, 3, 4
	ref, err := workload.NewTomcatv(n, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	par, _ := workload.NewTomcatv(n, field.RowMajor)
	var refResid []float64
	for i := 0; i < iters; i++ {
		if _, err := ref.Step(); err != nil {
			t.Fatal(err)
		}
		refResid = append(refResid, ref.ResidualMax())
	}

	// Crash rank 1 mid-program: on its receive from rank 0 in the third
	// wavefront sweep it has entered (iteration 2's forward sweep).
	inj, err := fault.New(fault.Plan{Rules: []fault.Rule{{
		Op: fault.OpRecv, Rank: 1, Peer: 0, Tag: fault.Any,
		Wave: 3, Action: fault.ActCrash,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	blocks := par.Blocks()
	sess, err := NewSession(par.Env, blocks, SessionConfig{
		Procs: procs, Domain: par.All, Block: 4,
		Faults:     inj,
		Checkpoint: &CheckpointConfig{Every: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	var parResid []float64
	err = sess.Run(func(r *Rank) error {
		absRx := expr.Call{Fn: expr.Abs, Args: []expr.Node{expr.Ref("rx")}}
		absRy := expr.Call{Fn: expr.Abs, Args: []expr.Node{expr.Ref("ry")}}
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
			if r.ID() == 0 {
				parResid = append(parResid, math.Max(vx, vy))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("crash did not recover: %v", err)
	}
	if inj.Fired() == 0 {
		t.Fatal("crash rule never fired; the run proves nothing")
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
