package pipeline

import (
	"testing"

	"wavefront/internal/field"
	"wavefront/internal/scan"
	"wavefront/internal/workload"
)

// TestSessionRetune: re-planning a session between Runs switches every
// registered block to the new width and the next Run still matches serial
// execution.
func TestSessionRetune(t *testing.T) {
	n, iters := 26, 2
	ref, err := workload.NewTomcatv(n, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	par, _ := workload.NewTomcatv(n, field.RowMajor)
	for i := 0; i < iters; i++ {
		for _, b := range ref.Blocks() {
			if err := scan.Exec(b, ref.Env, scan.ExecOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}

	blocks := par.Blocks()
	sess, err := NewSession(par.Env, blocks, SessionConfig{Procs: 3, Domain: par.All, Block: 4})
	if err != nil {
		t.Fatal(err)
	}
	execAll := func(r *Rank) error {
		for _, b := range blocks {
			if err := r.Exec(b); err != nil {
				return err
			}
		}
		return nil
	}
	if err := sess.Run(execAll); err != nil {
		t.Fatal(err)
	}
	sess.Retune(7)
	if sess.cfg.Block != 7 {
		t.Fatalf("Retune(7) left cfg.Block at %d", sess.cfg.Block)
	}
	for _, pl := range sess.plans {
		if pl.block != 7 {
			t.Fatalf("Retune(7) left a plan at block %d", pl.block)
		}
	}
	if err := sess.Run(execAll); err != nil {
		t.Fatal(err)
	}
	for name, g := range par.Env.Arrays {
		if d := g.MaxAbsDiff(par.All, ref.Env.Arrays[name]); d != 0 {
			t.Errorf("after Retune, %s differs from serial by %g", name, d)
		}
	}
}
