package pipeline

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/metrics"
	"wavefront/internal/scan"
	"wavefront/internal/workload"
)

// byRefCase is one block a one-shot Run executes, built fresh for each run
// so the parallel result can be held to a serial one over the same inputs.
type byRefCase struct {
	name string
	make func(t *testing.T) (*expr.MapEnv, *scan.Block)
	wDim int // -1: the dimension Run picks
	// shared says whether some rank reads a pipelined halo by reference at
	// p > 1: a cut along another dimension than the outermost is no view,
	// and SW's s is refreshed (its diagonal read leaves the region sideways).
	shared bool
}

func byRefCases() []byRefCase {
	tomcatv := func(backward bool) func(t *testing.T) (*expr.MapEnv, *scan.Block) {
		return func(t *testing.T) (*expr.MapEnv, *scan.Block) {
			tc := primedTomcatv(t, 64, field.RowMajor)
			if !backward {
				return tc.Env, tc.ForwardBlock()
			}
			if err := scan.Exec(tc.ForwardBlock(), tc.Env, scan.ExecOptions{}); err != nil {
				t.Fatal(err)
			}
			return tc.Env, tc.BackwardBlock()
		}
	}
	octant := func(i int) func(t *testing.T) (*expr.MapEnv, *scan.Block) {
		return func(t *testing.T) (*expr.MapEnv, *scan.Block) {
			sw, err := workload.NewSweep(24, 3, field.RowMajor)
			if err != nil {
				t.Fatal(err)
			}
			return sw.Env, sw.OctantBlock(sw.Octants()[i])
		}
	}
	fill := func(t *testing.T) (*expr.MapEnv, *scan.Block) {
		sw, err := workload.NewSW(64, 7, field.RowMajor)
		if err != nil {
			t.Fatal(err)
		}
		return sw.Env, sw.Block()
	}
	return []byRefCase{
		{"tomcatv-forward", tomcatv(false), -1, true},
		{"tomcatv-backward", tomcatv(true), -1, true},
		{"sweep3d-octant0", octant(0), -1, false},
		{"sweep3d-octant0-w0", octant(0), 0, true},
		{"sweep3d-octant7-w0", octant(7), 0, true},
		{"sw-fill", fill, -1, false},
		{"sw-fill-w0", fill, 0, true},
	}
}

// sameAsSerial reports every array of got whose bits differ from want's.
func sameAsSerial(t *testing.T, got, want *expr.MapEnv) {
	t.Helper()
	for name, f := range want.Arrays {
		if !bitsEqual(got.Arrays[name].Data(), f.Data()) {
			t.Errorf("%s differs from the serial result", name)
		}
	}
}

// TestHaloByReferenceBitIdentical runs one-shots whose ranks read pipelined
// halo rows where the upstream rank wrote them — the Tomcatv sweeps both
// ways, Sweep3D octants travelling low to high and high to low, the SW fill
// with f by reference and s copied — beside the same blocks cut where no view
// is possible, at p = 2, 3, 4 under the static schedule and the task DAG at
// two workers, and a session that sweeps the forward block twice in one Run,
// which must keep its copies. Every result is the serial one, bit for bit.
// CI runs it under the race detector: a read of a halo row before the
// upstream rank's token, or a write to another rank's rows, is a race.
func TestHaloByReferenceBitIdentical(t *testing.T) {
	for _, c := range byRefCases() {
		for _, p := range []int{2, 3, 4} {
			for _, sched := range []scan.Scheduler{scan.SchedStatic, scan.SchedTaskDAG} {
				t.Run(fmt.Sprintf("%s/p%d/%v", c.name, p, sched), func(t *testing.T) {
					want, blk := c.make(t)
					if err := scan.Exec(blk, want, scan.ExecOptions{}); err != nil {
						t.Fatal(err)
					}
					got, blk := c.make(t)
					sess, err := oneBlockSession(blk, got, Config{Procs: p, Block: 8, Scheduler: sched, Workers: 2}, c.wDim, -1)
					if err == nil {
						err = sess.arm()
					}
					if err != nil {
						t.Fatal(err)
					}
					var halo [4]bool
					err = sess.Run(func(r *Rank) error {
						halo[r.ID()] = strings.Contains(holdings(r, got), "H")
						return r.Exec(blk)
					})
					if err != nil {
						t.Fatal(err)
					}
					if shared := halo[0] || halo[1] || halo[2] || halo[3]; shared != c.shared {
						t.Errorf("a rank reads a halo by reference: %v, want %v", shared, c.shared)
					}
					sameAsSerial(t, got, want)
				})
			}
		}
	}

	for _, p := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("session-forward-twice/p%d", p), func(t *testing.T) {
			want := primedTomcatv(t, 64, field.RowMajor)
			for range 2 {
				if err := scan.Exec(want.ForwardBlock(), want.Env, scan.ExecOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			tc := primedTomcatv(t, 64, field.RowMajor)
			fwd := tc.ForwardBlock()
			sess, err := NewSession(tc.Env, []*scan.Block{fwd}, Config{Procs: p, Domain: fwd.Region, Block: 8})
			if err != nil {
				t.Fatal(err)
			}
			err = sess.Run(func(r *Rank) error {
				if h := holdings(r, tc.Env); r.ID() > 0 && h != "FCFRCC" {
					t.Errorf("rank %d holds %v as %s, want FCFRCC", r.ID(), r.sess.names, h)
				}
				for range 2 {
					if err := r.Exec(fwd); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			sameAsSerial(t, tc.Env, want.Env)
		})
	}
}

// TestHaloByReferenceDriftIsFinite: a metered one-shot whose messages are
// only the token feeds the drift monitor messages of 0 elements. The fit
// then has no spread in size and reads β = 0, the boundary depth (elements
// per message per unit of tile width) falls back to 1, and Equation (1) is
// its β = 0 form: every number in the report is finite, and the recomputed
// tile width is a width.
func TestHaloByReferenceDriftIsFinite(t *testing.T) {
	tc := primedTomcatv(t, 128, field.RowMajor)
	reg := metrics.New(2)
	st, err := Run(tc.ForwardBlock(), tc.Env, Config{Procs: 2, Block: 16, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if st.Comm.Messages == 0 || st.Comm.Elements != 0 {
		t.Fatalf("the run sent %d messages of %d elements, want messages of none", st.Comm.Messages, st.Comm.Elements)
	}
	if msgs, elems := reg.Counter(metrics.PipeWaveMsgs).Value(), reg.Counter(metrics.PipeWaveElems).Value(); msgs == 0 || elems != 0 {
		t.Errorf("the registry counts %d boundary messages of %d elements, want messages of none", msgs, elems)
	}
	d := st.Drift
	if d == nil {
		t.Fatal("a metered Run returned no drift report")
	}
	t.Log(d)
	for name, v := range map[string]float64{
		"AlphaNs": d.AlphaNs, "BetaNs": d.BetaNs, "TauNs": d.TauNs, "Alpha": d.Alpha, "BetaTile": d.BetaTile,
		"PredictedOptNs": d.PredictedOptNs, "PredictedActualNs": d.PredictedActualNs,
		"ObservedNs": d.ObservedNs, "DriftRatio": d.DriftRatio, "Samples": d.Samples,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %g, want a finite number", name, v)
		}
	}
	if d.BetaNs != 0 || d.BetaTile != 0 {
		t.Errorf("β = %g ns/elem (%g a tile column), want 0", d.BetaNs, d.BetaTile)
	}
	if d.TauNs <= 0 || d.PredictedOptNs <= 0 || d.DriftRatio <= 0 {
		t.Errorf("τ = %g, predicted %g ns, ratio %g: want all positive", d.TauNs, d.PredictedOptNs, d.DriftRatio)
	}
	if d.OptimalBlock < 1 || d.OptimalBlock > 125 {
		t.Errorf("recomputed tile width %d outside [1, 125]", d.OptimalBlock)
	}
}
