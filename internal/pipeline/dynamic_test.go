package pipeline

import (
	"testing"

	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/scan"
	"wavefront/internal/workload"
)

func TestProbeReturnsSaneCosts(t *testing.T) {
	alpha, beta, err := Probe(50)
	if err != nil {
		t.Fatal(err)
	}
	if alpha < 0 || beta < 0 {
		t.Errorf("negative costs: alpha=%g beta=%g", alpha, beta)
	}
	if alpha == 0 && beta == 0 {
		t.Error("probe measured nothing")
	}
	// A message should cost less than a second on any machine.
	if alpha > 1 {
		t.Errorf("alpha = %gs is implausible", alpha)
	}
}

func TestChooseBlock(t *testing.T) {
	// alpha = 100 element-times, beta = 1: Equation (1) mid-range.
	b, err := ChooseBlock(256, 8, 100e-9, 1e-9, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if b < 1 || b > 256 {
		t.Errorf("b = %d out of range", b)
	}
	// Enormous alpha clamps to n.
	b, err = ChooseBlock(64, 4, 1, 0, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if b != 64 {
		t.Errorf("huge alpha should clamp to n, got %d", b)
	}
	if _, err := ChooseBlock(64, 4, 1, 1, 0); err == nil {
		t.Error("zero element time must fail")
	}
}

// TestSessionRank3Sweep: a rank-3 wavefront through a session.
func TestSessionRank3Sweep(t *testing.T) {
	s, err := workload.NewSweep(8, 3, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := workload.NewSweep(8, 3, field.RowMajor)
	var blocks []*scan.Block
	for _, dirs := range s.Octants() {
		blocks = append(blocks, s.OctantBlock(dirs))
	}
	for _, dirs := range ref.Octants() {
		if err := scan.Exec(ref.OctantBlock(dirs), ref.Env, scan.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := NewSession(s.Env, blocks, SessionConfig{Procs: 2, Domain: s.Inner, Block: 3})
	if err != nil {
		t.Fatal(err)
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
		t.Fatal(err)
	}
	if d := s.Env.Arrays["flux"].MaxAbsDiff(s.Inner, ref.Env.Arrays["flux"]); d != 0 {
		t.Errorf("rank-3 session sweep differs by %g", d)
	}
}

// TestSessionScalarCapture: a rank follows the scalars its blocks read.
// Setting one before the block's first Exec, setting the value it holds
// again, or setting a scalar no block reads lowers nothing; a new value is
// lowered once, at the block's next Exec. The second Run re-binds the kernel
// the first left and lowers again only where c moved. Every Exec reads the
// value set last, as a serial program would.
func TestSessionScalarCapture(t *testing.T) {
	n := 8
	bounds := grid.Square(2, 1, n)
	env := &expr.MapEnv{Arrays: map[string]*field.Field{
		"a": field.MustNew("a", bounds, field.RowMajor),
	}, Scalars: map[string]float64{}}
	blk := scan.NewPlain(bounds, scan.Stmt{
		LHS: expr.Ref("a"),
		RHS: expr.Binary{Op: expr.Add, L: expr.Ref("a"), R: expr.Scalar("c")},
	})
	sess, err := NewSession(env, []*scan.Block{blk}, SessionConfig{Procs: 2, Domain: bounds})
	if err != nil {
		t.Fatal(err)
	}
	body := func(r *Rank) error {
		r.SetScalar("c", 4)
		r.SetScalar("c", 5) // nothing is lowered yet: only the last value counts
		if err := r.Exec(blk); err != nil {
			return err
		}
		r.SetScalar("c", 5)
		r.SetScalar("unread", 3)
		if err := r.Exec(blk); err != nil {
			return err
		}
		r.SetScalar("c", 6)
		return r.Exec(blk)
	}
	for run, want := range []struct {
		a      float64
		builds int
	}{{16, 2}, {32, 4}} {
		if err := sess.Run(body); err != nil {
			t.Fatal(err)
		}
		if got := env.Arrays["a"].At2(3, 3); got != want.a {
			t.Errorf("Run %d: a = %g, want %g (5 + 5 + 6 a Run)", run+1, got, want.a)
		}
		_, _, builds := keptCounts(sess, []*scan.Block{blk})
		for rank, got := range builds[0] {
			if got != want.builds {
				t.Errorf("Run %d, rank %d: the block was lowered %d times, want %d", run+1, rank, got, want.builds)
			}
		}
	}
}
