package pipeline

import (
	"maps"
	"testing"

	"wavefront/internal/comm"
	"wavefront/internal/fault"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/metrics"
	"wavefront/internal/scan"
	"wavefront/internal/trace"
	"wavefront/internal/workload"
)

// Run is a one-block Session, so whatever either reports about the same
// block on the same decomposition must agree. These tests pin the places
// where the two executors used to differ or where the merge changed what a
// caller sees.

// TestKernelPathCountersSessionMatchesRun: a static-schedule session's
// kernels publish their path tallies like Run's. The session used to skip
// Kernel.SetMetrics, so its kernel_path_* counters stayed dark.
func TestKernelPathCountersSessionMatchesRun(t *testing.T) {
	const n, procs, block = 128, 2, 16
	spans := func(run func(tom *workload.Tomcatv, reg *metrics.Registry) error) int64 {
		t.Helper()
		tom, err := workload.NewTomcatv(n, field.RowMajor)
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.New(procs)
		if err := run(tom, reg); err != nil {
			t.Fatal(err)
		}
		return reg.Counter(metrics.KernelPathSpan).Value()
	}
	viaRun := spans(func(tom *workload.Tomcatv, reg *metrics.Registry) error {
		cfg := DefaultConfig(procs, block)
		cfg.Metrics = reg
		_, err := Run(tom.ForwardBlock(), tom.Env, cfg)
		return err
	})
	viaSession := spans(func(tom *workload.Tomcatv, reg *metrics.Registry) error {
		fwd := tom.ForwardBlock()
		sess, err := NewSession(tom.Env, []*scan.Block{fwd}, SessionConfig{
			Procs: procs, Domain: tom.All, Block: block, Metrics: reg,
		})
		if err != nil {
			return err
		}
		return sess.Run(func(r *Rank) error { return r.Exec(fwd) })
	})
	if viaSession == 0 {
		t.Fatal("a static-schedule session reports no kernel_path_span_total with a registry attached")
	}
	if viaSession != viaRun {
		t.Errorf("kernel_path_span_total: session %d, Run %d on the same block", viaSession, viaRun)
	}
}

// TestRunStatsPinned holds Run's decomposition and traffic for three corpus
// shapes at the values the separate one-block executor produced: the
// messages on every transport, and their elements — the paper's payload —
// over a unix socket. On the in-process transport the Tomcatv sweeps read
// their pipelined halo rows by reference, so each message is only the
// token; the octant, cut along dimension 1, which a view cannot cut, still
// carries its rows.
func TestRunStatsPinned(t *testing.T) {
	tom, err := workload.NewTomcatv(34, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := workload.NewSweep(12, 3, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name                   string
		run                    func(Config) (*Stats, error)
		tiles                  int
		msgs, elems, chanElems int64
		wDim, tDim             int
		pipelined              map[string]int
		wavefrontDir           grid.LoopDir
	}{
		{"forward", func(cfg Config) (*Stats, error) { return Run(tom.ForwardBlock(), tom.Env, cfg) },
			8, 16, 192, 0, 0, 1, map[string]int{"d": 1, "rx": 1, "ry": 1}, grid.LowToHigh},
		{"backward", func(cfg Config) (*Stats, error) { return Run(tom.BackwardBlock(), tom.Env, cfg) },
			8, 16, 128, 0, 0, 1, map[string]int{"rx": 1, "ry": 1}, grid.HighToLow},
		{"rank-3 octant, explicit dims", func(cfg Config) (*Stats, error) {
			return runDims(sw.OctantBlock(sw.Octants()[5]), sw.Env, cfg, 1, 2)
		}, 3, 6, 288, 288, 1, 2, map[string]int{"flux": 1}, grid.LowToHigh},
	} {
		for _, kind := range []comm.TransportKind{comm.TransportChan, comm.TransportUnix} {
			cfg := DefaultConfig(3, 4)
			cfg.Transport.Kind = kind
			st, err := c.run(cfg)
			if err != nil {
				t.Fatalf("%s over %v: %v", c.name, kind, err)
			}
			elems := c.elems
			if kind == comm.TransportChan {
				elems = c.chanElems
			}
			if st.Tiles != c.tiles || st.Comm.Messages != c.msgs || st.Comm.Elements != elems {
				t.Errorf("%s over %v: tiles=%d msgs=%d elems=%d, want %d/%d/%d", c.name, kind,
					st.Tiles, st.Comm.Messages, st.Comm.Elements, c.tiles, c.msgs, elems)
			}
			if st.WavefrontDim != c.wDim || st.TileDim != c.tDim {
				t.Errorf("%s: dims (%d,%d), want (%d,%d)", c.name, st.WavefrontDim, st.TileDim, c.wDim, c.tDim)
			}
			if got := st.Loop.Dirs[st.WavefrontDim]; got != c.wavefrontDir {
				t.Errorf("%s: wavefront travels %v, want %v", c.name, got, c.wavefrontDir)
			}
			if !maps.Equal(st.Pipelined, c.pipelined) {
				t.Errorf("%s: pipelined %v, want %v", c.name, st.Pipelined, c.pipelined)
			}
		}
	}
}

// TestBackwardBlockOneShot runs the Tomcatv backward substitution, whose
// wavefront travels high to low: rank i holds slab i, so the sweep enters
// at the last rank and rank i's upstream is i+1. The traced schedule must
// validate, and a crash inside the sweep must recover bit-identically.
func TestBackwardBlockOneShot(t *testing.T) {
	const n, procs, block = 34, 3, 4
	prep := func() *workload.Tomcatv {
		tom, err := workload.NewTomcatv(n, field.RowMajor)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []*scan.Block{tom.ResidualBlock(), tom.CoefficientBlock(), tom.ForwardBlock()} {
			if err := scan.Exec(b, tom.Env, scan.ExecOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		return tom
	}
	ref := prep()
	if err := scan.Exec(ref.BackwardBlock(), ref.Env, scan.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	identical := func(tom *workload.Tomcatv) {
		t.Helper()
		for _, name := range workload.TomcatvArrays {
			if d := tom.Env.Arrays[name].MaxAbsDiff(tom.All, ref.Env.Arrays[name]); d != 0 {
				t.Errorf("%s differs from serial by %g", name, d)
			}
		}
	}

	tom := prep()
	rec := trace.New(procs, trace.DefaultCapacity)
	cfg := DefaultConfig(procs, block)
	cfg.Trace = rec
	if _, err := Run(tom.BackwardBlock(), tom.Env, cfg); err != nil {
		t.Fatal(err)
	}
	identical(tom)
	if err := trace.ValidateRecorder(rec); err != nil {
		t.Errorf("schedule validation failed: %v", err)
	}
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindWaveRecv && ev.Peer != ev.Rank+1 {
			t.Fatalf("rank %d received a boundary message from rank %d, want its upstream %d", ev.Rank, ev.Peer, ev.Rank+1)
		}
		if ev.Kind == trace.KindWaveRecv && ev.Rank == procs-1 {
			t.Fatalf("rank %d, where the sweep enters, received a boundary message", ev.Rank)
		}
	}

	// Crash rank 1 on its third boundary message from upstream rank 2; with
	// a cut every 2 tiles the restart resumes at the top of tile 2.
	tom = prep()
	inj := fault.MustNew(fault.Plan{Rules: []fault.Rule{{
		Op: fault.OpRecv, Rank: 1, Peer: 2, Tag: 2, Action: fault.ActCrash,
	}}})
	rec = trace.New(procs, trace.DefaultCapacity)
	cfg = DefaultConfig(procs, block)
	cfg.Trace, cfg.Faults, cfg.Checkpoint = rec, inj, &CheckpointConfig{Every: 2}
	if _, err := Run(tom.BackwardBlock(), tom.Env, cfg); err != nil {
		t.Fatalf("crash did not recover: %v", err)
	}
	if inj.Fired() == 0 {
		t.Fatal("crash rule never fired; the run proves nothing")
	}
	identical(tom)
	restores := 0
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindRestore {
			restores++
			if ev.Rank != 1 || ev.Tile != 2 {
				t.Errorf("restore on rank %d at tile %d, want rank 1 at tile 2", ev.Rank, ev.Tile)
			}
		}
	}
	if restores != 1 {
		t.Errorf("traced %d restores, want 1", restores)
	}
}
