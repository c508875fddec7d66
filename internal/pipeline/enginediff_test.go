package pipeline

import (
	"strings"
	"testing"

	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/scan"
	"wavefront/internal/workload"
)

// The engine differential suite pins the correctness contract on the
// paper's three workloads: the tape kernel engine is a pure execution
// optimization. Every array a tape session produces — serial and at p = 1,
// 2, 4 — must be bit-identical to the closure reference engine. Tomcatv's
// forward/backward scans exercise the span path (dependence along dim 0
// only), Sweep3D's octants the skewed hyperplane path (a dependence along
// every dimension, carried by the (1,1) skew of the inner loop pair), and
// SIMPLE a mix of plain and scan blocks. The forced point walk rides
// along as a third leg: it is the baseline the vector paths are measured
// against, and it must agree bit for bit too.

func engines() []scan.Engine {
	return []scan.Engine{scan.EngineTape, scan.EngineClosure, scan.EngineScalar}
}

func TestEngineBitIdenticalTomcatv(t *testing.T) {
	n, iters := 26, 3
	ref, err := workload.NewTomcatv(n, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < iters; i++ {
		for _, b := range ref.Blocks() {
			if err := scan.Exec(b, ref.Env, scan.ExecOptions{Engine: scan.EngineClosure}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Serial tape leg.
	st, _ := workload.NewTomcatv(n, field.RowMajor)
	for i := 0; i < iters; i++ {
		for _, b := range st.Blocks() {
			if err := scan.Exec(b, st.Env, scan.ExecOptions{Engine: scan.EngineTape}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name := range ref.Env.Arrays {
		if d := st.Env.Arrays[name].MaxAbsDiff(ref.All, ref.Env.Arrays[name]); d != 0 {
			t.Errorf("tomcatv %s: serial tape differs from closure by %g", name, d)
		}
	}
	for _, procs := range []int{1, 2, 4} {
		for _, eng := range engines() {
			w, _ := workload.NewTomcatv(n, field.RowMajor)
			blocks := w.Blocks()
			sess, err := NewSession(w.Env, blocks, SessionConfig{
				Procs: procs, Domain: w.All, Block: 4, Kernel: eng})
			if err != nil {
				t.Fatal(err)
			}
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
				t.Fatal(err)
			}
			for name := range ref.Env.Arrays {
				if d := w.Env.Arrays[name].MaxAbsDiff(ref.All, ref.Env.Arrays[name]); d != 0 {
					t.Errorf("tomcatv %s: engine %v p=%d differs from closure serial by %g", name, eng, procs, d)
				}
			}
		}
	}
}

func TestEngineBitIdenticalSimple(t *testing.T) {
	n, steps := 24, 3
	ref, err := workload.NewSimple(n, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		for _, b := range ref.Blocks() {
			if err := scan.Exec(b, ref.Env, scan.ExecOptions{Engine: scan.EngineClosure}); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, _ := workload.NewSimple(n, field.RowMajor)
	for i := 0; i < steps; i++ {
		for _, b := range st.Blocks() {
			if err := scan.Exec(b, st.Env, scan.ExecOptions{Engine: scan.EngineTape}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range workload.SimpleArrays {
		if d := st.Env.Arrays[name].MaxAbsDiff(ref.All, ref.Env.Arrays[name]); d != 0 {
			t.Errorf("simple %s: serial tape differs from closure by %g", name, d)
		}
	}
	for _, procs := range []int{1, 2, 4} {
		for _, eng := range engines() {
			w, _ := workload.NewSimple(n, field.RowMajor)
			blocks := w.Blocks()
			sess, err := NewSession(w.Env, blocks, SessionConfig{
				Procs: procs, Domain: w.All, Block: 5, Kernel: eng})
			if err != nil {
				t.Fatal(err)
			}
			err = sess.Run(func(r *Rank) error {
				for i := 0; i < steps; i++ {
					for _, b := range blocks {
						if err := r.Exec(b); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range workload.SimpleArrays {
				if d := w.Env.Arrays[name].MaxAbsDiff(ref.All, ref.Env.Arrays[name]); d != 0 {
					t.Errorf("simple %s: engine %v p=%d differs from closure serial by %g", name, eng, procs, d)
				}
			}
		}
	}
}

func TestEngineBitIdenticalSweep3D(t *testing.T) {
	n := 8
	ref, err := workload.NewSweep(n, 3, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	for _, dirs := range ref.Octants() {
		if err := scan.Exec(ref.OctantBlock(dirs), ref.Env, scan.ExecOptions{Engine: scan.EngineClosure}); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := workload.NewSweep(n, 3, field.RowMajor)
	for _, dirs := range st.Octants() {
		if err := scan.Exec(st.OctantBlock(dirs), st.Env, scan.ExecOptions{Engine: scan.EngineTape}); err != nil {
			t.Fatal(err)
		}
	}
	if d := st.Env.Arrays["flux"].MaxAbsDiff(ref.Inner, ref.Env.Arrays["flux"]); d != 0 {
		t.Errorf("sweep3d flux: serial tape differs from closure by %g", d)
	}
	for _, procs := range []int{1, 2, 4} {
		for _, eng := range engines() {
			w, _ := workload.NewSweep(n, 3, field.RowMajor)
			var blocks []*scan.Block
			for _, dirs := range w.Octants() {
				blocks = append(blocks, w.OctantBlock(dirs))
			}
			sess, err := NewSession(w.Env, blocks, SessionConfig{
				Procs: procs, Domain: w.Inner, Block: 3, Kernel: eng})
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
			if d := w.Env.Arrays["flux"].MaxAbsDiff(ref.Inner, ref.Env.Arrays["flux"]); d != 0 {
				t.Errorf("sweep3d flux: engine %v p=%d differs from closure serial by %g", eng, procs, d)
			}
		}
	}
}

// TestRankRefusesCapturedScalarChange: a rank's kernels bake a scalar's value
// in when they are built — the tape as an immediate, the closure engine's
// closures as a captured value — and nothing on a rank watches the scalar afterwards, so changing it once a block
// has run is an error under every engine, a scalar no block read stays free,
// and up to the refusal the engines agree bit for bit. The session runs
// twice: the second Run re-binds the kernel the first lowered, which bakes
// the same value in and must be refused alike.
func TestRankRefusesCapturedScalarChange(t *testing.T) {
	const n, procs = 26, 2
	results := map[scan.Engine]*workload.Tomcatv{}
	for _, eng := range engines() {
		w, err := workload.NewTomcatv(n, field.RowMajor)
		if err != nil {
			t.Fatal(err)
		}
		blk := w.ForwardBlock()
		blk.Stmts[0].RHS = expr.MulN(expr.Scalar("w"), blk.Stmts[0].RHS)
		sess, err := NewSession(w.Env, []*scan.Block{blk}, SessionConfig{Procs: procs, Domain: w.All, Block: 4, Kernel: eng})
		if err != nil {
			t.Fatal(err)
		}
		body := func(r *Rank) error {
			if err := r.SetScalar("w", 0.75); err != nil {
				return err
			}
			if err := r.SetScalar("w", 1.25); err != nil { // no kernel yet: free to change
				return err
			}
			if err := r.Exec(blk); err != nil {
				return err
			}
			if err := r.SetScalar("w", 1.25); err != nil { // the captured value again
				return err
			}
			if err := r.SetScalar("unread", 3); err != nil {
				return err
			}
			if err := r.SetScalar("w", 0.75); err == nil || !strings.Contains(err.Error(), "captured") {
				t.Errorf("engine %v, rank %d: changing a captured scalar returned %v", eng, r.ID(), err)
			}
			return nil
		}
		for run := 0; run < 2; run++ {
			if err := sess.Run(body); err != nil {
				t.Fatal(err)
			}
		}
		results[eng] = w
	}
	ref := results[scan.EngineTape]
	for eng, w := range results {
		for name, f := range ref.Env.Arrays {
			if d := w.Env.Arrays[name].MaxAbsDiff(ref.All, f); d != 0 {
				t.Errorf("%s: engine %v differs from the tape by %g", name, eng, d)
			}
		}
	}
}
