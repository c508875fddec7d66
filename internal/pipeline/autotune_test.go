package pipeline

import (
	"testing"

	"wavefront/internal/field"
	"wavefront/internal/metrics"
	"wavefront/internal/scan"
	"wavefront/internal/workload"
)

// preloadDrift stamps a registry with a fitted-model state: samples
// observations behind the fit, opt the recomputed Eq (1) optimal width,
// and predicted makespans claiming the configured width costs ratio times
// the optimum. SuggestBlock reads exactly these gauges, so the tests can
// steer the tuner without replaying a mistuned workload.
func preloadDrift(reg *metrics.Registry, samples, opt int, ratio float64) {
	reg.Gauge(metrics.ModelSamples).Set(float64(samples))
	reg.Gauge(metrics.ModelOptBlock).Set(float64(opt))
	reg.Gauge(metrics.ModelPredictedNs).Set(1e6)
	reg.Gauge(metrics.ModelPredActualNs).Set(1e6 * ratio)
}

func TestSuggestBlock(t *testing.T) {
	var nilReg *metrics.Registry
	if _, ok := nilReg.SuggestBlock(32, 1.05); ok {
		t.Error("nil registry must not suggest a block")
	}
	cases := []struct {
		name    string
		samples int
		opt     int
		ratio   float64
		want    int
		wantOK  bool
	}{
		{"mistuned", 100, 8, 2.0, 8, true},
		{"barely mistuned", 100, 8, 1.06, 8, true},
		{"well tuned", 100, 8, 1.0, 0, false},
		{"within tolerance", 100, 8, 1.04, 0, false},
		{"insufficient samples", 10, 8, 2.0, 0, false},
		{"no optimum yet", 100, 0, 2.0, 0, false},
	}
	for _, c := range cases {
		reg := metrics.New(2)
		preloadDrift(reg, c.samples, c.opt, c.ratio)
		got, ok := reg.SuggestBlock(32, 1.05)
		if got != c.want || ok != c.wantOK {
			t.Errorf("%s: SuggestBlock = (%d, %v), want (%d, %v)", c.name, got, ok, c.want, c.wantOK)
		}
	}
}

// TestRunAutoTune: a Run with AutoTune consults the drift gauges before
// planning. A mistuned verdict replaces the configured width with the
// model's optimum (visible in Stats.Block) without changing the results; a
// thin sample base leaves the width alone.
func TestRunAutoTune(t *testing.T) {
	ref, err := workload.NewTomcatv(32, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	if err := scan.Exec(ref.ForwardBlock(), ref.Env, scan.ExecOptions{}); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name      string
		samples   int
		wantBlock int
	}{
		{"mistuned retunes", 100, 8},
		{"insufficient samples keeps width", 4, 2},
	} {
		par, _ := workload.NewTomcatv(32, field.RowMajor)
		reg := metrics.New(4)
		preloadDrift(reg, c.samples, 8, 2.0)
		stats, err := Run(par.ForwardBlock(), par.Env, Config{Procs: 4, Block: 2, Metrics: reg, AutoTune: true})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if stats.Block != c.wantBlock {
			t.Errorf("%s: ran at block %d, want %d", c.name, stats.Block, c.wantBlock)
		}
		for _, name := range []string{"rx", "ry"} {
			if d := par.Env.Arrays[name].MaxAbsDiff(par.All, ref.Env.Arrays[name]); d != 0 {
				t.Errorf("%s: %s differs from serial by %g", c.name, name, d)
			}
		}
	}
}

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

// TestSessionAutoTune: a session Run with AutoTune retunes at entry from
// the preloaded drift verdict, every rank walks the retuned tiling, and the
// results stay bit-identical to serial execution.
func TestSessionAutoTune(t *testing.T) {
	n, iters := 26, 6
	ref, err := workload.NewTomcatv(n, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	par, _ := workload.NewTomcatv(n, field.RowMajor)
	fwd, bwd := ref.ForwardBlock(), ref.BackwardBlock()
	for i := 0; i < iters; i++ {
		if err := scan.Exec(fwd, ref.Env, scan.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := scan.Exec(bwd, ref.Env, scan.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	reg := metrics.New(2)
	preloadDrift(reg, 100, 5, 2.0)
	pfwd, pbwd := par.ForwardBlock(), par.BackwardBlock()
	sess, err := NewSession(par.Env, []*scan.Block{pfwd, pbwd}, SessionConfig{
		Procs: 2, Domain: par.All, Block: 3,
		Metrics: reg, AutoTune: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Run(func(r *Rank) error {
		for i := 0; i < iters; i++ {
			if err := r.Exec(pfwd); err != nil {
				return err
			}
			if err := r.Exec(pbwd); err != nil {
				return err
			}
		}
		if w := sess.plans[pfwd].ranks[r.ID()].sched.tiles[0].Dim(sess.plans[pfwd].tDim).Size(); w != 5 {
			t.Errorf("rank %d walked tiles of width %d, want the suggested 5", r.ID(), w)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.cfg.Block != 5 {
		t.Errorf("AutoTune entry retune left cfg.Block at %d, want 5", sess.cfg.Block)
	}
	for _, name := range []string{"rx", "ry"} {
		if d := par.Env.Arrays[name].MaxAbsDiff(par.All, ref.Env.Arrays[name]); d != 0 {
			t.Errorf("autotuned session: %s differs from serial by %g", name, d)
		}
	}
}
