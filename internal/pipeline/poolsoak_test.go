//go:build pooltest

package pipeline

import (
	"math/rand"
	"testing"

	"wavefront/internal/bufpool"
	"wavefront/internal/field"
	"wavefront/internal/scan"
	"wavefront/internal/workload"
)

// The pooltest build tag gates the slow allocation soaks: CI runs them as
// a dedicated allocation-guard job (go test -tags=pooltest), while the
// default test run stays fast.

// TestPoolSoakSteadyHitRatio hammers a pooled session long enough that
// the warm-up misses vanish into the steady-state hits: after hundreds of
// sweeps the hit ratio must be near one and no lease may leak.
func TestPoolSoakSteadyHitRatio(t *testing.T) {
	tom, err := workload.NewTomcatv(48, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	blk := tom.ForwardBlock()
	pool := bufpool.New(4)
	sess, err := NewSession(tom.Env, []*scan.Block{blk}, SessionConfig{
		Procs: 4, Domain: tom.All, Block: 8, Pool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	const sweeps = 400
	err = sess.Run(func(r *Rank) error {
		for i := 0; i < sweeps; i++ {
			if err := r.Exec(blk); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if ratio := st.HitRatio(); ratio < 0.95 {
		t.Errorf("hit ratio %.3f after %d sweeps, want >= 0.95 (%+v)", ratio, sweeps, st)
	}
	if out := pool.Outstanding(); out != 0 {
		t.Errorf("%d buffers still leased after the soak", out)
	}
}

// TestPoolSoakRetuneChurn re-plans a shared-pool session at random widths
// between Runs, so message classes shrink and grow across the pool's size
// ladder, and checks every configuration stays bit-identical to serial.
// This is the stress that catches stale coalesced offsets surviving a
// retune, and leases returned to the wrong class.
func TestPoolSoakRetuneChurn(t *testing.T) {
	n, rounds := 26, 12
	rng := rand.New(rand.NewSource(42))

	ref, err := workload.NewTomcatv(n, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	par, _ := workload.NewTomcatv(n, field.RowMajor)
	blocks := par.Blocks()
	pool := bufpool.New(3)
	sess, err := NewSession(par.Env, blocks, SessionConfig{
		Procs: 3, Domain: par.All, Block: 4, Pool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		for _, b := range ref.Blocks() {
			if err := scan.Exec(b, ref.Env, scan.ExecOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		err = sess.Run(func(r *Rank) error {
			for _, b := range blocks {
				if err := r.Exec(b); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for name := range par.Env.Arrays {
			if d := par.Env.Arrays[name].MaxAbsDiff(par.All, ref.Env.Arrays[name]); d != 0 {
				t.Fatalf("round %d (block %d): %s differs from serial by %g",
					round, sess.cfg.Block, name, d)
			}
		}
		sess.Retune(1 + rng.Intn(12))
	}
	if out := pool.Outstanding(); out != 0 {
		t.Errorf("%d buffers still leased after the churn", out)
	}
}

// TestPoolSoakSharedAcrossSessions shares one pool between differently
// shaped sessions run back to back (the wavebench -serve pattern): buffers
// leased by one session's classes must be clean when the next session
// leases them, and the zero-alloc suite's poison fill would surface any
// stale payload as a NaN in the results.
func TestPoolSoakSharedAcrossSessions(t *testing.T) {
	pool := bufpool.New(3)
	for round := 0; round < 6; round++ {
		n := 16 + 8*(round%3)
		ref, err := workload.NewTomcatv(n, field.RowMajor)
		if err != nil {
			t.Fatal(err)
		}
		if err := scan.Exec(ref.ForwardBlock(), ref.Env, scan.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
		par, _ := workload.NewTomcatv(n, field.RowMajor)
		blk := par.ForwardBlock()
		sess, err := NewSession(par.Env, []*scan.Block{blk}, SessionConfig{
			Procs: 3, Domain: par.All, Block: 2 + round, Pool: pool,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Run(func(r *Rank) error { return r.Exec(blk) }); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"rx", "ry"} {
			if d := par.Env.Arrays[name].MaxAbsDiff(par.All, ref.Env.Arrays[name]); d != 0 {
				t.Fatalf("round %d (n=%d): %s differs from serial by %g", round, n, name, d)
			}
		}
	}
	if out := pool.Outstanding(); out != 0 {
		t.Errorf("%d buffers still leased after session churn", out)
	}
}
