package pipeline

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/scan"
	"wavefront/internal/workload"
)

// keptProgram is the Tomcatv program with its forward block's first
// statement scaled by the env scalar w, so a kernel captures a scalar the
// caller can change between Runs.
func keptProgram(t *testing.T, n int, w float64) (*workload.Tomcatv, []*scan.Block) {
	t.Helper()
	tom, err := workload.NewTomcatv(n, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	blocks := tom.Blocks()
	fwd := blocks[2]
	fwd.Stmts[0].RHS = expr.MulN(expr.Scalar("w"), fwd.Stmts[0].RHS)
	tom.Env.Scalars["w"] = w
	return tom, blocks
}

// keptBody runs one Tomcatv iteration and the residual reduction, recording
// the residual.
func keptBody(tom *workload.Tomcatv, blocks []*scan.Block, resid *float64) func(r *Rank) error {
	return func(r *Rank) error {
		for _, b := range blocks {
			if err := r.Exec(b); err != nil {
				return err
			}
		}
		v, err := r.Reduce(scan.MaxReduce, tom.Interior, residOperand())
		if r.ID() == 0 {
			*resid = v
		}
		return err
	}
}

// keptCounts is, per (leaf block, rank) of a session, the schedules cut and
// the kernels lowered so far; leaves are the blocks Exec runs, a plain
// group's statements one by one.
func keptCounts(sess *Session, blocks []*scan.Block) (leaves []*scan.Block, cuts, builds [][]int) {
	for _, b := range blocks {
		if subs, ok := sess.subBlocks[b]; ok {
			leaves = append(leaves, subs...)
		} else {
			leaves = append(leaves, b)
		}
	}
	for _, leaf := range leaves {
		var c, k []int
		for _, rb := range sess.plans[leaf].ranks {
			c, k = append(c, rb.cuts), append(k, rb.builds)
		}
		cuts, builds = append(cuts, c), append(builds, k)
	}
	return leaves, cuts, builds
}

// sameArrays reports the first array whose bits differ between two Tomcatv
// environments.
func sameArrays(got, want *workload.Tomcatv) error {
	for name, f := range want.Env.Arrays {
		g, w := got.Env.Arrays[name].Data(), f.Data()
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				return fmt.Errorf("%s[%d] = %v, want %v", name, i, g[i], w[i])
			}
		}
	}
	return nil
}

// TestSessionKeepsWhatARunDerives: a session Run twice cuts each (rank,
// block) schedule once, at arm, and lowers each kernel once, at the first
// Run; the second Run only re-binds them to its own fields and is bit for
// bit what a fresh session makes of the first Run's output. A captured
// scalar changed between Runs lowers each kernel that reads it once more; a
// Retune cuts every schedule again. Either way the Run stays bit-identical
// to a fresh session's. Within one Run (keptInRun), a scalar set through
// SetScalar between iterations lowers the kernels that read it — the static
// kernel, or the Run's task graph — once more per change of value.
func TestSessionKeepsWhatARunDerives(t *testing.T) {
	const n, block = 40, 8
	for _, procs := range []int{2, 3} {
		for _, sc := range []struct {
			name    string
			sched   scan.Scheduler
			workers int
		}{{"static", scan.SchedStatic, 0}, {"taskdag-w2", scan.SchedTaskDAG, 2}} {
			t.Run(fmt.Sprintf("p%d/in-Run-scalar/%s", procs, sc.name), func(t *testing.T) {
				keptInRun(t, procs, sc.sched, sc.workers)
			})
		}
		for _, c := range []struct {
			name    string
			between func(sess *Session, tom *workload.Tomcatv)
		}{
			{"unchanged", func(*Session, *workload.Tomcatv) {}},
			{"scalar", func(_ *Session, tom *workload.Tomcatv) { tom.Env.Scalars["w"] = 0.875 }},
			{"retune", func(sess *Session, _ *workload.Tomcatv) { sess.Retune(5) }},
		} {
			t.Run(fmt.Sprintf("p%d/%s", procs, c.name), func(t *testing.T) {
				tom, blocks := keptProgram(t, n, 1.125)
				cfg := Config{Procs: procs, Domain: tom.All, Block: block}
				sess, err := NewSession(tom.Env, blocks, cfg)
				if err != nil {
					t.Fatal(err)
				}
				var resid float64
				if err := sess.Run(keptBody(tom, blocks, &resid)); err != nil {
					t.Fatal(err)
				}
				_, cuts1, builds1 := keptCounts(sess, blocks)
				for i := range cuts1 {
					for r := range cuts1[i] {
						if cuts1[i][r] > 1 || builds1[i][r] != 1 {
							t.Fatalf("leaf %d, rank %d: %d cuts and %d builds after one Run, want at most 1 and 1",
								i, r, cuts1[i][r], builds1[i][r])
						}
					}
				}

				// The fresh session starts from the first Run's output.
				fresh, freshBlocks := keptProgram(t, n, 1.125)
				for name, f := range tom.Env.Arrays {
					copy(fresh.Env.Arrays[name].Data(), f.Data())
				}
				c.between(sess, tom)
				fresh.Env.Scalars["w"] = tom.Env.Scalars["w"]
				freshCfg := cfg
				freshCfg.Block = sess.cfg.Block
				freshSess, err := NewSession(fresh.Env, freshBlocks, freshCfg)
				if err != nil {
					t.Fatal(err)
				}
				var freshResid float64
				if err := freshSess.Run(keptBody(fresh, freshBlocks, &freshResid)); err != nil {
					t.Fatal(err)
				}

				if err := sess.Run(keptBody(tom, blocks, &resid)); err != nil {
					t.Fatal(err)
				}
				if err := sameArrays(tom, fresh); err != nil {
					t.Errorf("second Run differs from a fresh session's: %v", err)
				}
				if math.Float64bits(resid) != math.Float64bits(freshResid) {
					t.Errorf("second Run's residual %v, a fresh session's %v", resid, freshResid)
				}
				leaves, cuts2, builds2 := keptCounts(sess, blocks)
				for i := range cuts2 {
					for r := range cuts2[i] {
						wantCuts, wantBuilds := cuts1[i][r], builds1[i][r]
						switch {
						case c.name == "retune":
							wantCuts *= 2
							wantBuilds = builds2[i][r] // a new width may re-pitch the copies
						case c.name == "scalar" && leaves[i] == blocks[2]:
							wantBuilds++ // the forward block reads w
						}
						if cuts2[i][r] != wantCuts || builds2[i][r] != wantBuilds {
							t.Errorf("leaf %d, rank %d: %d cuts and %d builds after two Runs, want %d and %d",
								i, r, cuts2[i][r], builds2[i][r], wantCuts, wantBuilds)
						}
					}
				}
			})
		}
	}
}

// keptInRun runs four iterations of the kept program in one Run, setting w
// through SetScalar before each, and holds the Run to serial Prepare/Run of
// the same sequence bit for bit. The forward block, the one that reads w,
// is lowered once more per change of value; every other leaf once.
func keptInRun(t *testing.T, procs int, sched scan.Scheduler, workers int) {
	const n, block = 40, 8
	ws := []float64{1.125, 1.125, 0.875, 1.5} // the env's value, set again, then two changes
	tom, blocks := keptProgram(t, n, ws[0])
	sess, err := NewSession(tom.Env, blocks, Config{Procs: procs, Domain: tom.All, Block: block,
		Scheduler: sched, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	resid := make([]float64, len(ws))
	err = sess.Run(func(r *Rank) error {
		for i, w := range ws {
			r.SetScalar("w", w)
			if err := keptBody(tom, blocks, &resid[i])(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	serial, serialBlocks := keptProgram(t, n, ws[0])
	prepared := make([]*scan.Prepared, len(serialBlocks))
	for i, b := range serialBlocks {
		if prepared[i], err = scan.Prepare(b, serial.Env, scan.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range ws {
		serial.Env.Scalars["w"] = w
		for j, p := range prepared {
			if err := p.Run(serialBlocks[j].Region); err != nil {
				t.Fatal(err)
			}
		}
		want, err := scan.Reduce(scan.MaxReduce, serial.Interior, residOperand(), serial.Env)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(resid[i]) != math.Float64bits(want) {
			t.Errorf("iteration %d (w = %g): residual %v, serial %v", i, w, resid[i], want)
		}
	}
	if err := sameArrays(tom, serial); err != nil {
		t.Errorf("the Run differs from serial Prepare/Run: %v", err)
	}
	leaves, _, builds := keptCounts(sess, blocks)
	for i := range builds {
		for r, got := range builds[i] {
			want := 1
			if leaves[i] == blocks[2] {
				want = 3 // and once more for each of w's two changes
			}
			if got != want {
				t.Errorf("leaf %d, rank %d: lowered %d times in the Run, want %d", i, r, got, want)
			}
		}
	}
}

// TestKeptStatePinsNoRunStorage: what the session keeps between Runs —
// schedules, kernels, reduction operands — drops every reference to a
// Run's local copies when the Run ends, so a copy and its storage are
// collected after Run returns.
func TestKeptStatePinsNoRunStorage(t *testing.T) {
	tom, blocks := keptProgram(t, 40, 1.125)
	sess, err := NewSession(tom.Env, blocks, Config{Procs: 2, Domain: tom.All, Block: 8})
	if err != nil {
		t.Fatal(err)
	}
	var resid float64
	body := keptBody(tom, blocks, &resid)
	var watched, freed atomic.Int32
	err = sess.Run(func(r *Rank) error {
		if err := body(r); err != nil {
			return err
		}
		for i, name := range sess.names {
			if sess.binding(r.ID(), i).own != ownCopy {
				continue
			}
			lf := r.locals[name]
			watched.Add(2)
			runtime.SetFinalizer(lf, func(*field.Field) { freed.Add(1) })
			runtime.SetFinalizer(&lf.Data()[0], func(*float64) { freed.Add(1) })
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if watched.Load() == 0 {
		t.Fatal("no rank holds a copy; the check watches nothing")
	}
	for i := 0; i < 100 && freed.Load() < watched.Load(); i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if got, want := freed.Load(), watched.Load(); got != want {
		t.Errorf("%d of %d copies and storages collected after Run returned; the session pins the rest", got, want)
	}
	// The session still runs on what it kept.
	if err := sess.Run(body); err != nil {
		t.Fatal(err)
	}
}
