package wavefront_test

// One benchmark per paper artifact (see DESIGN.md's per-experiment index),
// plus throughput benchmarks for the library's moving parts. Regenerate
// the full figures with: go run ./cmd/wavebench -exp all
//
//	go test -bench=. -benchmem

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"wavefront"
	"wavefront/internal/cachesim"
	"wavefront/internal/critpath"
	"wavefront/internal/dep"
	"wavefront/internal/exp"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/machine"
	"wavefront/internal/metrics"
	"wavefront/internal/model"
	"wavefront/internal/pipeline"
	"wavefront/internal/scan"
	"wavefront/internal/taskdag"
	"wavefront/internal/workload"
	"wavefront/internal/zpl"
)

// --- E1, Figure 3: prime-operator semantics ---

func benchFig3(b *testing.B, primed bool) {
	const n = 256
	env := wavefront.NewEnv()
	a, err := wavefront.NewArrayIn(env, "a", wavefront.Box(0, n, 1, n))
	if err != nil {
		b.Fatal(err)
	}
	a.Fill(1)
	ref := wavefront.At("a", wavefront.North)
	if primed {
		ref = ref.Prime()
	}
	blk := wavefront.Plain(wavefront.Box(1, n, 1, n),
		wavefront.Assign("a", wavefront.Mul(wavefront.Num(0.999), ref)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wavefront.Exec(blk, env); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n*n), "elems/op")
}

func BenchmarkFig3Unprimed(b *testing.B) { benchFig3(b, false) }
func BenchmarkFig3Primed(b *testing.B)   { benchFig3(b, true) }

// --- E2, §2.2: analysis throughput (WSV + legality + loop derivation) ---

func BenchmarkWSVAnalysis(b *testing.B) {
	t, err := workload.NewTomcatv(32, field.RowMajor)
	if err != nil {
		b.Fatal(err)
	}
	blk := t.ForwardBlock()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wavefront.Analyze(blk); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3, Equation (1) ---

func BenchmarkEq1OptimalBlock(b *testing.B) {
	m := model.Model2(1500, 72)
	for i := 0; i < b.N; i++ {
		_ = m.OptimalBlock(250, 8)
	}
}

// --- E4, Figure 5(a): block-size sweep on the simulated machine ---

// simulateSchedules builds the runtime's static schedule of blocks over
// domain on each p at each tile width and costs it on par: what the
// simulated figures do per point, block construction and analysis
// (pipeline.NewProgram) aside.
func simulateSchedules(b *testing.B, par machine.Params, domain grid.Region, ps, widths []int, blocks ...*scan.Block) {
	prog, err := pipeline.NewProgram(blocks...)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			for _, w := range widths {
				d, err := prog.Schedule(pipeline.Config{Procs: p, Domain: domain, Block: w})
				if err != nil {
					b.Fatal(err)
				}
				simSink = par.Simulate(d)
			}
		}
	}
}

// simSink keeps the simulations above observable.
var simSink machine.Result

func BenchmarkFig5aSimulation(b *testing.B) {
	// The paper's 250 × 250 sweep, a := 0.5·a'@north, as fig5a simulates it.
	blk := scan.NewPlain(grid.Square(2, 1, 250), scan.Stmt{
		LHS: expr.Ref("a"),
		RHS: expr.MulN(expr.Const(0.5), expr.Ref("a").At(grid.North).Prime()),
	})
	simulateSchedules(b, machine.Params{Alpha: 1500, Beta: 72, ElemCost: 1}, blk.Region,
		[]int{8}, []int{1, 8, 23, 39, 128}, blk)
}

// --- E5, Figure 5(b): model curves only ---

// modelSink keeps the model evaluations below observable: with the results
// discarded the whole loop dead-code-eliminates into a ~25 ns shell whose
// timing swings ±30% with unrelated code-layout changes (the old
// BenchmarkFig5bModels tripped the bench guard exactly that way).
var modelSink float64

func BenchmarkFig5bModelEval(b *testing.B) {
	m1, m2 := model.Model1(400), model.Model2(400, 186)
	acc := 0.0
	for i := 0; i < b.N; i++ {
		for blk := 1; blk <= 64; blk++ {
			acc += m1.Speedup(64, 16, float64(blk))
			acc += m2.Speedup(64, 16, float64(blk))
		}
	}
	modelSink = acc
}

// --- E6, Figure 6: the fused/unfused native kernels and cache traces ---

func BenchmarkFig6TomcatvWaveUnfused(b *testing.B) {
	t := workload.NewNativeTomcatv(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.ForwardUnfused()
		t.BackwardUnfused()
	}
}

func BenchmarkFig6TomcatvWaveFused(b *testing.B) {
	t := workload.NewNativeTomcatv(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.ForwardFused()
		t.BackwardFused()
	}
}

func BenchmarkFig6TomcatvWhole(b *testing.B) {
	for _, fused := range []bool{false, true} {
		name := "unfused"
		if fused {
			name = "fused"
		}
		b.Run(name, func(b *testing.B) {
			t := workload.NewNativeTomcatv(512)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Step(fused)
			}
		})
	}
}

func BenchmarkFig6SimpleSweeps(b *testing.B) {
	for _, fused := range []bool{false, true} {
		name := "unfused"
		if fused {
			name = "fused"
		}
		b.Run(name, func(b *testing.B) {
			s := workload.NewNativeSimple(512)
			s.Hydro()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if fused {
					s.SweepsFused()
				} else {
					s.SweepsUnfused()
				}
			}
		})
	}
}

func BenchmarkFig6CacheTrace(b *testing.B) {
	t := workload.NewNativeTomcatv(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := cachesim.T3ELike()
		t.TraceForward(h, true)
	}
}

// --- E7, Figure 7: pipelined vs naive simulation across p ---

func BenchmarkFig7Simulation(b *testing.B) {
	// Tomcatv's forward and backward sweeps at n = 512, pipelined and naive.
	t, err := workload.NewTomcatv(512, field.RowMajor)
	if err != nil {
		b.Fatal(err)
	}
	simulateSchedules(b, machine.T3ELike, t.All, []int{2, 4, 8, 16}, []int{28, 0},
		t.ForwardBlock(), t.BackwardBlock())
}

// --- E8 and the full harness ---

func BenchmarkExperimentHarnessQuick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, id := range []string{"fig3", "wsv", "eq1", "fig5b"} {
			r, err := exp.Run(id, true)
			if err != nil || r.Err != nil {
				b.Fatalf("%s: %v %v", id, err, r.Err)
			}
		}
	}
}

// --- Runtime throughput ---

// BenchmarkPipelineTomcatvForward is a one-shot Run of the forward sweep at
// n = 128, b = 16: four ranks on this host's two CPUs, and the two ranks the
// repository benchmark's cold_oneshot runs. Most of the op is what surrounds
// the waves — the ranks' copies of the written arrays and the collection
// that garbage buys — so gc/op is reported beside ns/op.
func BenchmarkPipelineTomcatvForward(b *testing.B) {
	for _, procs := range []int{4, 2} {
		b.Run("p"+itoa(procs)+"-b16", func(b *testing.B) {
			t, err := workload.NewTomcatv(128, field.RowMajor)
			if err != nil {
				b.Fatal(err)
			}
			blk := t.ForwardBlock()
			b.ReportAllocs()
			timeWithGC(b, func() {
				if _, err := pipeline.Run(blk, t.Env, pipeline.DefaultConfig(procs, 16)); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// timeWithGC is the timed loop of a benchmark whose op makes enough garbage
// to pace the collector: b.N calls of op, with the collections completed
// meanwhile reported as gc/op beside ns/op.
func timeWithGC(b *testing.B, op func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(m1.NumGC-m0.NumGC)/float64(b.N), "gc/op")
}

// benchObserver runs the pipelined Tomcatv forward sweep (n = 128, p = 4,
// b = 16) with one optional layer off and on. build makes the layer's
// observer and returns how to attach it and, optionally, a check of what the
// "on" leg left in it. Both legs build — only "on" attaches — so both hold
// the same heap: a one-shot Run leaves ≈ 0.8 MB of garbage, the collector
// paces itself by the live heap, and a 27 MB trace ring held by one leg
// alone cut that leg's collections from one Run in two to one in thirty,
// which for ten snapshots read as an observer that speeds the run up (on ÷
// off 0.64; EXPERIMENTS.md, PR 26). gc/op is reported so a ratio that is
// really the collector's shows as one.
func benchObserver(b *testing.B, build func(b *testing.B) (attach func(*pipeline.Config), check func(*testing.B))) {
	for _, name := range []string{"off", "on"} {
		b.Run(name, func(b *testing.B) {
			t, err := workload.NewTomcatv(128, field.RowMajor)
			if err != nil {
				b.Fatal(err)
			}
			blk := t.ForwardBlock()
			cfg := pipeline.DefaultConfig(4, 16)
			attach, check := build(b)
			if name == "on" {
				attach(&cfg)
			}
			timeWithGC(b, func() {
				// A recorder is reused across iterations (Reset, not
				// reallocate); a no-op on the nil recorder of every other leg.
				cfg.Trace.Reset()
				if _, err := pipeline.Run(blk, t.Env, cfg); err != nil {
					b.Fatal(err)
				}
			})
			if name == "on" && check != nil {
				check(b)
			}
			runtime.KeepAlive(attach) // the closure holds the observer on the "off" leg too
		})
	}
}

// BenchmarkPipelineTrace measures the cost of execution tracing: "off" is
// the default nil-recorder path (one pointer check per operation), "on"
// records every span. The off case must stay within noise of
// BenchmarkPipelineTomcatvForward.
func BenchmarkPipelineTrace(b *testing.B) {
	benchObserver(b, func(*testing.B) (func(*pipeline.Config), func(*testing.B)) {
		rec := wavefront.NewTraceRecorder(4)
		return func(cfg *pipeline.Config) { cfg.Trace = rec }, nil
	})
}

// BenchmarkPipelineMetrics measures the cost of live metrics: "off" is the
// default nil-registry path (one pointer check per operation, the same
// contract as tracing and fault injection), "on" updates every counter, the
// tile histogram, the cost fits, and the drift monitor. The registry is
// reused across iterations: the measurement is the per-operation update
// cost, not instrument allocation.
func BenchmarkPipelineMetrics(b *testing.B) {
	benchObserver(b, func(*testing.B) (func(*pipeline.Config), func(*testing.B)) {
		reg := wavefront.NewMetrics(4)
		return func(cfg *pipeline.Config) { cfg.Metrics = reg }, func(b *testing.B) {
			if reg.Counter(metrics.PipeTiles).Value() == 0 {
				b.Fatal("metrics-on run recorded no tiles")
			}
		}
	})
}

// BenchmarkPipelinePostmortem measures the cost of the armed-but-idle
// flight recorder: "off" is the default nil-recorder path, "on" arms a
// memory-only recorder (no directory, so clean iterations never touch the
// filesystem), which makes every clean run record into the flight trace
// ring and stash its state for CaptureNow. Nothing fails, so no bundle is
// encoded or written — the measurement is the always-on recording overhead.
// The flight ring belongs to the session each one-shot Run builds, so it is
// garbage per op (part of what the layer costs, and gc/op shows it), not a
// heap the two legs could share.
func BenchmarkPipelinePostmortem(b *testing.B) {
	benchObserver(b, func(*testing.B) (func(*pipeline.Config), func(*testing.B)) {
		pm := critpath.NewPostmortem("")
		return func(cfg *pipeline.Config) { cfg.Postmortem = pm }, func(b *testing.B) {
			// The stash must hold the last clean run.
			if _, _, err := pm.CaptureNow("bench"); err != nil {
				b.Fatalf("armed recorder stashed nothing: %v", err)
			}
		}
	})
}

// BenchmarkPipelineFaults measures the cost of the fault-injection hook:
// "off" is the default nil-injector path (one pointer check per
// send/receive, same contract as tracing), "on" compiles a plan whose
// single rule is pinned to a tag no boundary message carries, so every
// operation pays the full rule-matching cost and nothing fires.
func BenchmarkPipelineFaults(b *testing.B) {
	benchObserver(b, func(b *testing.B) (func(*pipeline.Config), func(*testing.B)) {
		inj, err := wavefront.NewFaultInjector(wavefront.FaultPlan{
			Seed: 1,
			Rules: []wavefront.FaultRule{{Op: wavefront.FaultOnSend,
				Rank: wavefront.FaultAny, Peer: wavefront.FaultAny,
				Tag: 1 << 20, Action: wavefront.FaultDrop}},
		})
		if err != nil {
			b.Fatal(err)
		}
		return func(cfg *pipeline.Config) { cfg.Faults = inj }, func(b *testing.B) {
			if inj.Fired() != 0 {
				b.Fatal("the never-matching rule fired")
			}
		}
	})
}

// BenchmarkPipelineCheckpoint prices wave-boundary checkpointing: snapshots
// off vs. cut every other wave into the in-memory store. The on/off ratio is
// the overhead a user pays for crash recoverability at that interval. The
// store is built per Run from the config, so there is no heap to share.
func BenchmarkPipelineCheckpoint(b *testing.B) {
	benchObserver(b, func(*testing.B) (func(*pipeline.Config), func(*testing.B)) {
		ck := &pipeline.CheckpointConfig{Every: 2}
		return func(cfg *pipeline.Config) { cfg.Checkpoint = ck }, nil
	})
}

// BenchmarkPipelineHeapBallast is the experiment behind benchObserver's rule:
// the one-shot Tomcatv forward sweep (n = 128, b = 16) with nothing attached,
// beside a live []byte of 0, 8 or 27 MB — the last is the size of a default
// trace ring. Only the collector's pacing differs between the legs.
func BenchmarkPipelineHeapBallast(b *testing.B) {
	for _, p := range []int{2, 4} {
		for _, mb := range []int{0, 8, 27} {
			b.Run("p"+itoa(p)+"/"+itoa(mb)+"MB", func(b *testing.B) {
				t, err := workload.NewTomcatv(128, field.RowMajor)
				if err != nil {
					b.Fatal(err)
				}
				blk := t.ForwardBlock()
				ballast := make([]byte, mb<<20)
				timeWithGC(b, func() {
					if _, err := pipeline.Run(blk, t.Env, pipeline.DefaultConfig(p, 16)); err != nil {
						b.Fatal(err)
					}
				})
				runtime.KeepAlive(ballast)
			})
		}
	}
}

// BenchmarkPipelineSteadyAllocs measures the steady-state wave with buffer
// pooling off vs on: one op is a full 4-rank sweep of the Tomcatv forward
// wavefront inside one Run of a persistent session, after a warm-up Run —
// the schedules were cut when the session was built, the kernels lowered by
// the warm-up Run and re-bound by the measured one, and, pooled, the free
// lists filled. With pooling on, allocs/op must sit at zero for large b.N
// and ns/op must be no worse than the off case.
func BenchmarkPipelineSteadyAllocs(b *testing.B) {
	for _, pooled := range []bool{false, true} {
		name := "off"
		if pooled {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			t, err := workload.NewTomcatv(128, field.RowMajor)
			if err != nil {
				b.Fatal(err)
			}
			blk := t.ForwardBlock()
			cfg := pipeline.SessionConfig{Procs: 4, Domain: t.All, Block: 16}
			if pooled {
				cfg.Pool = wavefront.NewBufferPool(4)
			}
			sess, err := pipeline.NewSession(t.Env, []*scan.Block{blk}, cfg)
			if err != nil {
				b.Fatal(err)
			}
			warm := func(r *pipeline.Rank) error {
				for i := 0; i < 3; i++ {
					if err := r.Exec(blk); err != nil {
						return err
					}
				}
				return nil
			}
			if err := sess.Run(warm); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			err = sess.Run(func(r *pipeline.Rank) error {
				for i := 0; i < b.N; i++ {
					if err := r.Exec(blk); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// --- Task-DAG scheduler: static pipeline vs the tile DAG on a pool ---

// BenchmarkTaskDAGScheduler runs the Tomcatv forward wavefront through a
// single-rank session under the static schedule and under the task-DAG
// scheduler at several pool sizes. With one rank the DAG's
// in-portion parallelism is the only variable: on a multi-core host the
// wider pools win wall-clock, on a single hardware thread the numbers
// document the scheduler's overhead instead.
func BenchmarkTaskDAGScheduler(b *testing.B) {
	legs := []struct {
		name    string
		sched   scan.Scheduler
		workers int
	}{
		{"static", scan.SchedStatic, 0},
		{"taskdag-w1", scan.SchedTaskDAG, 1},
		{"taskdag-w2", scan.SchedTaskDAG, 2},
		{"taskdag-w4", scan.SchedTaskDAG, 4},
	}
	for _, leg := range legs {
		b.Run(leg.name, func(b *testing.B) {
			t, err := workload.NewTomcatv(256, field.RowMajor)
			if err != nil {
				b.Fatal(err)
			}
			blk := t.ForwardBlock()
			cfg := pipeline.SessionConfig{Procs: 1, Domain: t.All, Block: 16,
				Scheduler: leg.sched, Workers: leg.workers}
			sess, err := pipeline.NewSession(t.Env, []*scan.Block{blk}, cfg)
			if err != nil {
				b.Fatal(err)
			}
			warm := func(r *pipeline.Rank) error {
				for i := 0; i < 3; i++ {
					if err := r.Exec(blk); err != nil {
						return err
					}
				}
				return nil
			}
			if err := sess.Run(warm); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			err = sess.Run(func(r *pipeline.Rank) error {
				for i := 0; i < b.N; i++ {
					if err := r.Exec(blk); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkSerialScanTomcatvForward(b *testing.B) {
	t, err := workload.NewTomcatv(128, field.RowMajor)
	if err != nil {
		b.Fatal(err)
	}
	blk := t.ForwardBlock()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := scan.Exec(blk, t.Env, scan.ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDPWavefront(b *testing.B) {
	d, err := workload.NewDP(128, 1, field.RowMajor)
	if err != nil {
		b.Fatal(err)
	}
	blk := d.Block()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := scan.Exec(blk, d.Env, scan.ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- New workload families (PR9): per-family ns/point ---

// BenchmarkSWFill prices the affine-gap Smith-Waterman fill: three tables
// written per point, five neighbour reads, seven max folds.
func BenchmarkSWFill(b *testing.B) {
	w, err := workload.NewSW(128, 7, field.RowMajor)
	if err != nil {
		b.Fatal(err)
	}
	blk := w.Block()
	points := float64(w.Inner.Dim(0).Size() * w.Inner.Dim(1).Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := scan.Exec(blk, w.Env, scan.ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*points), "ns/point")
}

// BenchmarkFactorization prices the full right-looking elimination (every
// per-k block) for both variants. ns/point is per region point actually
// swept — the shrinking trailing submatrices sum to ~n³/3 updates, so the
// metric reads as cost per elimination update, not per matrix entry.
func BenchmarkFactorization(b *testing.B) {
	for _, c := range []struct {
		name string
		mk   func(int, int64, field.Layout) (*workload.Factor, error)
	}{{"lu", workload.NewLU}, {"cholesky", workload.NewCholesky}} {
		b.Run(c.name, func(b *testing.B) {
			w, err := c.mk(48, 3, field.RowMajor)
			if err != nil {
				b.Fatal(err)
			}
			points := 0.0
			for _, blk := range w.Blocks() {
				points += float64(blk.Region.Dim(0).Size() * blk.Region.Dim(1).Size())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Reset()
				if err := w.Run(scan.ExecOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*points), "ns/point")
		})
	}
}

// BenchmarkMultiOctant prices two counter-propagating octants plus the
// combine pass at n = 256, like with like: the serial kernel, the blocks
// back to back each on its own two-worker tile graph, and the one-shot
// merged group (scan.ExecGroup) whose opposing wavefronts fill each other's
// ramp idle time on one two-worker pool. Both task-DAG legs build their
// graphs inside the timed op, as every one-shot caller does.
func BenchmarkMultiOctant(b *testing.B) {
	w2 := scan.ExecOptions{Scheduler: scan.SchedTaskDAG, Workers: 2}
	for _, c := range []struct {
		name    string
		grouped bool
		opt     scan.ExecOptions
	}{
		{"serial", false, scan.ExecOptions{}},
		{"blocks-w2", false, w2},
		{"grouped-w2", true, w2},
	} {
		b.Run(c.name, func(b *testing.B) {
			w, err := workload.NewMultiOctant(256, 2, field.RowMajor)
			if err != nil {
				b.Fatal(err)
			}
			points := float64(w.Inner.Dim(0).Size()*w.Inner.Dim(1).Size()) * 3 // 2 octants + combine
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if c.grouped {
					err = w.Run(c.opt)
				} else {
					err = w.RunSequential(c.opt)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*points), "ns/point")
		})
	}
}

// BenchmarkTaskDAGFamilies prices the one-shot task-DAG scheduler on the
// families whose tile cost varies with position — LU and Cholesky at n = 96,
// a shrinking trailing block per elimination step, ~480 small graph runs an
// op — and on the Smith-Waterman 256² fill, one graph with every dimension
// carried, at W = 1 / 2 / 4. It is the table that decides what the pool has
// to be good at (EXPERIMENTS.md "Scheduler floor", "PR 36"). Each op starts
// its pools and builds its graphs, as every caller that prepares once does:
// Factor.Run one pool and one graph per statement shape, re-cut every step,
// scan.Exec of the fill one of each.
func BenchmarkTaskDAGFamilies(b *testing.B) {
	// family returns one op of the named family: a whole factorization from
	// a reset matrix, or one fill.
	family := func(b *testing.B, name string) func(scan.ExecOptions) error {
		if name == "sw" {
			w, err := workload.NewSW(256, 7, field.RowMajor)
			if err != nil {
				b.Fatal(err)
			}
			blk := w.Block()
			return func(opt scan.ExecOptions) error { return scan.Exec(blk, w.Env, opt) }
		}
		mk := workload.NewLU
		if name == "cholesky" {
			mk = workload.NewCholesky
		}
		w, err := mk(96, 3, field.RowMajor)
		if err != nil {
			b.Fatal(err)
		}
		return func(opt scan.ExecOptions) error { w.Reset(); return w.Run(opt) }
	}
	for _, name := range []string{"lu", "cholesky", "sw"} {
		for _, leg := range []struct {
			name    string
			workers int
		}{{"w1", 1}, {"w2", 2}, {"w4", 4}} {
			b.Run(name+"/"+leg.name, func(b *testing.B) {
				run := family(b, name)
				opt := scan.ExecOptions{Scheduler: scan.SchedTaskDAG, Workers: leg.workers}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := run(opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkSweepOctant(b *testing.B) {
	s, err := workload.NewSweep(64, 2, field.RowMajor)
	if err != nil {
		b.Fatal(err)
	}
	blk := s.OctantBlock(s.Octants()[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := scan.Exec(blk, s.Env, scan.ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// requireKernelPath runs blk once under engine with a probe registry and
// fails the benchmark unless the named executor path actually fired. The
// engine A/B below uses it so a silent fallback (a lowering regression, a
// skew-legality break) turns into a bench failure instead of a measurement
// of the wrong pair.
func requireKernelPath(b *testing.B, blk *scan.Block, env *wavefront.Env, engine scan.Engine, counter, want string) {
	b.Helper()
	reg := metrics.New(1)
	if err := scan.Exec(blk, env, scan.ExecOptions{Engine: engine, Metrics: reg}); err != nil {
		b.Fatal(err)
	}
	if n := reg.Snapshot().Counters[counter].Total; n == 0 {
		b.Fatalf("engine %v did not take the %s path (kernel fell back); refusing to measure", engine, want)
	}
}

// BenchmarkKernelTapeVsClosure is the engine A/B for this PR's acceptance
// criterion: the vector tape engine versus the per-point closure engine
// and the tape forced to walk point by point on the same serial scans. Rank 2 is the
// Tomcatv forward wave at n=512 (the span path: dependence along dim 0
// only, dim 1 runs as unit-stride spans); rank 3 is a Sweep3D octant,
// where every axis carries a dependence and the tape runs skewed
// hyperplane diagonals. Each tape case first probes that the claimed path
// actually executes — a fallback fails the benchmark rather than quietly
// measuring the closures. The closure leg is the oracle's cost (per-point
// grid.Point closures), not a served path. ns/point is reported so the ratio reads
// directly against the kernel_ns_per_point gauge.
func BenchmarkKernelTapeVsClosure(b *testing.B) {
	cases := []struct {
		name   string
		engine scan.Engine
	}{
		{"tape", scan.EngineTape},
		{"closure", scan.EngineClosure},
		{"scalar", scan.EngineScalar},
	}
	b.Run("tomcatv512", func(b *testing.B) {
		for _, c := range cases {
			b.Run(c.name, func(b *testing.B) {
				t, err := workload.NewTomcatv(512, field.RowMajor)
				if err != nil {
					b.Fatal(err)
				}
				blk := t.ForwardBlock()
				if c.engine == scan.EngineTape {
					requireKernelPath(b, blk, t.Env, c.engine, metrics.KernelPathSpan, "span")
				}
				points := float64(t.All.Dim(0).Size() * t.All.Dim(1).Size())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := scan.Exec(blk, t.Env, scan.ExecOptions{Engine: c.engine}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*points), "ns/point")
			})
		}
	})
	b.Run("sweep64", func(b *testing.B) {
		for _, c := range cases {
			b.Run(c.name, func(b *testing.B) {
				s, err := workload.NewSweep(64, 3, field.RowMajor)
				if err != nil {
					b.Fatal(err)
				}
				blk := s.OctantBlock(s.Octants()[0])
				if c.engine == scan.EngineTape {
					requireKernelPath(b, blk, s.Env, c.engine, metrics.KernelPathSkewed, "skewed")
				}
				in := s.Inner
				points := float64(in.Dim(0).Size() * in.Dim(1).Size() * in.Dim(2).Size())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := scan.Exec(blk, s.Env, scan.ExecOptions{Engine: c.engine}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*points), "ns/point")
			})
		}
	})
}

// --- Front-end throughput ---

const benchZPLSrc = `
const n = 24;
region All  = [1..n, 1..n];
region Wave = [2..n-2, 2..n-1];
direction north = [-1, 0];
var r, aa, d, dd, rx, ry : [All] double;
[All] begin
  aa := 0.4; dd := 4.0; d := 1.0; rx := 2.0; ry := 3.0; r := 0.0;
end;
[Wave] scan
  r  := aa * d'@north;
  d  := 1.0 / (dd - aa@north * r);
  rx := rx - rx'@north * r;
  ry := ry - ry'@north * r;
end;
`

func BenchmarkZPLParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := zpl.Parse(benchZPLSrc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZPLRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := wavefront.RunZPL(benchZPLSrc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkZPLPrograms runs each testdata program the repository
// benchmark's zpl_programs pass runs (output to a buffer, as there), and the
// seven in a row as "all": the per-program split of that pass.
func BenchmarkZPLPrograms(b *testing.B) {
	names := []string{"fig3", "heat", "multioct", "sw", "sweep", "tomcatv", "lu"}
	srcs := make([]string, len(names))
	for i, name := range names {
		src, err := os.ReadFile(filepath.Join("testdata", name+".zpl"))
		if err != nil {
			b.Fatal(err)
		}
		srcs[i] = string(src)
	}
	run := func(b *testing.B, srcs []string) {
		var out bytes.Buffer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, src := range srcs {
				out.Reset()
				if _, err := wavefront.RunZPL(src, &out); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	for i, name := range names {
		b.Run(name, func(b *testing.B) { run(b, srcs[i:i+1]) })
	}
	b.Run("all", func(b *testing.B) { run(b, srcs) })
}

// BenchmarkPrepared is what holding the handle saves on a small block (the
// 7 x 8 forward wavefront of scan.exec_small): a fresh Exec per run against
// one Prepare and a warm Run per run.
func BenchmarkPrepared(b *testing.B) {
	t, err := workload.NewTomcatv(10, field.RowMajor)
	if err != nil {
		b.Fatal(err)
	}
	blk := t.ForwardBlock()
	// The sweep feeds on its own output; both legs restore what it writes
	// so every run does the first run's arithmetic.
	written := []string{"r", "d", "rx", "ry"}
	saved := make([]*field.Field, len(written))
	for i, name := range written {
		saved[i] = t.Env.Arrays[name].Clone()
	}
	restore := func() {
		for i, name := range written {
			t.Env.Arrays[name].CopyRegion(t.All, saved[i])
		}
	}
	b.Run("exec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			restore()
			if err := scan.Exec(blk, t.Env, scan.ExecOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared-run", func(b *testing.B) {
		p, err := scan.Prepare(blk, t.Env, scan.ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			restore()
			if err := p.Run(blk.Region); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablations ---

func BenchmarkAblateTempVsInPlace(b *testing.B) {
	const n = 256
	for _, forceTemp := range []bool{false, true} {
		name := "inplace"
		if forceTemp {
			name = "temp"
		}
		b.Run(name, func(b *testing.B) {
			env := wavefront.NewEnv()
			a, err := wavefront.NewArrayIn(env, "a", wavefront.Box(0, n+1, 1, n))
			if err != nil {
				b.Fatal(err)
			}
			a.Fill(1)
			blk := wavefront.Plain(wavefront.Box(1, n, 1, n),
				wavefront.Assign("a", wavefront.Mul(wavefront.Num(0.999), wavefront.At("a", wavefront.North))))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := scan.Exec(blk, env, scan.ExecOptions{ForceTemp: forceTemp}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPipelineBlockSizes(b *testing.B) {
	t, err := workload.NewTomcatv(128, field.RowMajor)
	if err != nil {
		b.Fatal(err)
	}
	blk := t.ForwardBlock()
	for _, width := range []int{1, 8, 32, 0} {
		name := "naive"
		if width > 0 {
			name = "b" + itoa(width)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pipeline.Run(blk, t.Env, pipeline.DefaultConfig(4, width)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// --- Whole-program session runtime ---

// BenchmarkSessionTomcatvIteration runs one Tomcatv iteration per Run of a
// warm 4-rank session: allocs/op is what a Run pays beside its waves, its
// schedules and kernels kept by the session.
func BenchmarkSessionTomcatvIteration(b *testing.B) {
	t, err := workload.NewTomcatv(96, field.RowMajor)
	if err != nil {
		b.Fatal(err)
	}
	blocks := t.Blocks()
	sess, err := pipeline.NewSession(t.Env, blocks, pipeline.SessionConfig{
		Procs: 4, Domain: t.All, Block: 12,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := sess.Run(func(r *pipeline.Rank) error {
			for _, blk := range blocks {
				if err := r.Exec(blk); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZPLParallelHeat(b *testing.B) {
	src := `
const n = 24;
region Big = [0..n+1, 0..n+1];
region R   = [1..n, 1..n];
direction north = [-1, 0];
direction south = [1, 0];
direction west  = [0, -1];
direction east  = [0, 1];
var t, t2 : [Big] double;
var resid : double;
[Big] t := 0;
[Big] t2 := 0;
[0, 0..n+1] t := 100;
[0, 0..n+1] t2 := 100;
for i := 1 to 10 do
  [R] t2 := (t@north + t@south + t@west + t@east) / 4;
  [R] resid := max<< abs(t2 - t);
  [R] t := t2;
end;
`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wavefront.RunZPLParallel(src, nil, 2, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReduceMax(b *testing.B) {
	const n = 512
	env := wavefront.NewEnv()
	a, err := wavefront.NewArrayIn(env, "a", wavefront.Box(1, n, 1, n))
	if err != nil {
		b.Fatal(err)
	}
	a.Fill(1.5)
	region := wavefront.Box(1, n, 1, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wavefront.Reduce(wavefront.MaxReduce, region, wavefront.Ref("a"), env); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n*n), "elems/op")
}

// BenchmarkReduce is the local fold of Tomcatv's convergence test,
// max<<(|rx|, |ry|), over the 510² interior through a warm Reducer — what
// one rank of a session pays per reduction after the first: closure is the
// per-point fold (the oracle, and the path of small regions), tape the
// span-tape fold. The plain legs fold the residuals one Step leaves, which
// are smooth: |rx| > |ry| holds over long runs of points and a branching
// max predicts nearly every element. The -random legs fold seeded uniform
// values, where the order of the two operands is a coin toss per element —
// what a session's residuals look like after a few iterations, and what
// the max costs when it cannot be predicted.
func BenchmarkReduce(b *testing.B) {
	for _, c := range []struct {
		name   string
		engine scan.Engine
		random bool
	}{
		{"closure", scan.EngineClosure, false}, {"tape", scan.EngineTape, false},
		{"closure-random", scan.EngineClosure, true}, {"tape-random", scan.EngineTape, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			t, err := workload.NewTomcatv(512, field.RowMajor)
			if err != nil {
				b.Fatal(err)
			}
			if c.random {
				rng := rand.New(rand.NewSource(17))
				for _, name := range []string{"rx", "ry"} {
					t.Env.Arrays[name].FillFunc(t.All, func(grid.Point) float64 { return 2*rng.Float64() - 1 })
				}
			} else if _, err := t.Step(); err != nil {
				b.Fatal(err)
			}
			rd := scan.NewReducer(wavefront.Max(
				expr.Call{Fn: expr.Abs, Args: []expr.Node{wavefront.Ref("rx")}},
				expr.Call{Fn: expr.Abs, Args: []expr.Node{wavefront.Ref("ry")}}), t.Env)
			rd.SetEngine(c.engine)
			want := t.ResidualMax()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := rd.Reduce(scan.MaxReduce, t.Interior)
				if err != nil || got != want {
					b.Fatalf("fold = %v, %v; want %v", got, err, want)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(t.Interior.Size())), "ns/point")
		})
	}
}

// BenchmarkKernelTileWidth runs the Tomcatv forward kernel over one rank's
// share of n = 512 at p = 2 (255 rows) cut into pipeline tiles of the given
// width, tile after tile as the static schedule runs them. Equation (1)
// assumes the per-point cost does not depend on the width; ns/point here is
// how far it does (per-span dispatch, and at this size row pitch misses).
// The handwritten legs walk the same tiles with a straight Go loop over the
// same fields: the floor under each width, and the evidence that the cliff
// is the 4 KB-pitch access pattern rather than the tape.
//
// The w32 legs come in three storage maps. Plain is the caller's dense
// 512-column array: 255 rows at an exact 4 KB pitch. -padded is the pitch
// the runtime gives its rank-local fields (field.NewLocal: one cache line
// more per row). -tilemajor gives every tile its own dense field set, 32
// columns wide, so a tile is one streaming block — the layout ROADMAP item
// 1(b) weighed and EXPERIMENTS.md records as not built; the legs stay so
// the number it would buy for the wavefront tiles alone can be re-read.
func BenchmarkKernelTileWidth(b *testing.B) {
	rows := grid.NewRange(2, 256)
	type tileSet struct {
		env  *expr.MapEnv
		cols grid.Range
	}
	// fieldSets returns the field sets the tiles of the given width run
	// over: the workload's own arrays for "" (every tile shares them), a
	// padded copy for "padded", one dense copy per tile for "tilemajor".
	fieldSets := func(b *testing.B, width int, storage string) (*workload.Tomcatv, []tileSet) {
		t, err := workload.NewTomcatv(512, field.RowMajor)
		if err != nil {
			b.Fatal(err)
		}
		tiles := grid.Tiles(t.ForwardBlock().Region.Dim(1), width)
		copyOf := func(bounds grid.Region, alloc func(string, grid.Region, field.Layout) (*field.Field, error)) *expr.MapEnv {
			env := &expr.MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{}}
			for name, g := range t.Env.Arrays {
				f, err := alloc(name, bounds, field.RowMajor)
				if err != nil {
					b.Fatal(err)
				}
				f.CopyRegion(bounds, g)
				env.Arrays[name] = f
			}
			return env
		}
		var sets []tileSet
		switch storage {
		case "":
			for _, cols := range tiles {
				sets = append(sets, tileSet{t.Env, cols})
			}
		case "padded":
			env := copyOf(t.All, func(name string, bounds grid.Region, layout field.Layout) (*field.Field, error) {
				return field.NewLocal(name, bounds, layout, width)
			})
			if got := env.Arrays["r"].Stride(0); got != 520 {
				b.Fatalf("padded pitch = %d elements, want 520", got)
			}
			for _, cols := range tiles {
				sets = append(sets, tileSet{env, cols})
			}
		case "tilemajor":
			for _, cols := range tiles {
				bounds := grid.MustRegion(grid.NewRange(rows.Lo-1, rows.Hi), cols)
				sets = append(sets, tileSet{copyOf(bounds, field.New), cols})
			}
		}
		return t, sets
	}
	points := func(sets []tileSet) float64 {
		n := 0
		for _, s := range sets {
			n += rows.Size() * s.cols.Size()
		}
		return float64(n)
	}
	for _, c := range []struct {
		name    string
		width   int
		storage string
	}{{"w16", 16, ""}, {"w32", 32, ""}, {"w64", 64, ""}, {"full", 510, ""},
		{"w32-padded", 32, "padded"}, {"w32-tilemajor", 32, "tilemajor"}} {
		b.Run("handwritten-"+c.name, func(b *testing.B) {
			_, sets := fieldSets(b, c.width, c.storage)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range sets {
					a := s.env.Arrays
					r, aa, d, dd, rx, ry := a["r"].Data(), a["aa"].Data(), a["d"].Data(), a["dd"].Data(), a["rx"].Data(), a["ry"].Data()
					fr := a["r"]
					pitch := fr.Stride(0)
					for row := rows.Lo; row <= rows.Hi; row++ {
						lo, hi := fr.Index2(row, s.cols.Lo), fr.Index2(row, s.cols.Hi)
						for k := lo; k <= hi; k++ {
							up := k - pitch
							v := aa[k] * d[up]
							r[k] = v
							d[k] = 1 / (dd[k] - aa[up]*v)
							rx[k] -= rx[up] * v
							ry[k] -= ry[up] * v
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*points(sets)), "ns/point")
		})
		b.Run(c.name, func(b *testing.B) {
			t, sets := fieldSets(b, c.width, c.storage)
			blk := t.ForwardBlock()
			an, err := scan.Analyze(blk, dep.Preference{PreferLow: true})
			if err != nil {
				b.Fatal(err)
			}
			// One kernel per field set (tiles that share fields share it).
			kernels := map[*expr.MapEnv]*scan.Kernel{}
			type tileRun struct {
				k    *scan.Kernel
				tile grid.Region
			}
			var runs []tileRun
			for _, s := range sets {
				k := kernels[s.env]
				if k == nil {
					if k, err = scan.NewKernelDeps(blk, s.env, an.UDVs); err != nil {
						b.Fatal(err)
					}
					kernels[s.env] = k
				}
				runs = append(runs, tileRun{k, grid.MustRegion(rows, s.cols)})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range runs {
					r.k.Run(r.tile, an.Loop)
				}
			}
			b.StopTimer()
			for _, k := range kernels {
				if pc := k.PathCounts(); pc.Span == 0 || pc.Span != pc.Total() {
					b.Fatalf("tiles left the span path: %v", pc)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*points(sets)), "ns/point")
		})
	}
}

// BenchmarkTaskDAGTileShape runs the Tomcatv forward then backward wavefront
// at n = 512 on one pair of tile graphs, at the automatic geometry and at
// explicit rows x cols tile shapes, on pools of one and two workers. No
// dependence crosses a column boundary, so every column cut only shortens
// the row-spans the kernel walks (BenchmarkKernelTileWidth is the same cliff
// without a scheduler); the automatic geometry must sit with the best
// explicit shape at each pool width.
func BenchmarkTaskDAGTileShape(b *testing.B) {
	shapes := []struct {
		name  string
		tileW []int
	}{{"auto", nil}, {"64x64", []int{64, 64}}, {"64x128", []int{64, 128}},
		{"64x255", []int{64, 255}}, {"64x510", []int{64, 510}}}
	for _, workers := range []int{1, 2} {
		for _, shape := range shapes {
			b.Run("w"+itoa(workers)+"/"+shape.name, func(b *testing.B) {
				t, err := workload.NewTomcatv(512, field.RowMajor)
				if err != nil {
					b.Fatal(err)
				}
				var graphs []*taskdag.Graph
				points := 0
				for _, blk := range []*scan.Block{t.ForwardBlock(), t.BackwardBlock()} {
					an, err := scan.Analyze(blk, dep.Preference{PreferLow: true})
					if err != nil {
						b.Fatal(err)
					}
					g, err := taskdag.New(blk.Region, an.Loop, an.UDVs, taskdag.Options{Workers: workers, TileW: shape.tileW})
					if err != nil {
						b.Fatal(err)
					}
					defer g.Stop()
					kernels := make([]*scan.Kernel, workers)
					for i := range kernels {
						if kernels[i], err = scan.NewKernelDeps(blk, t.Env, an.UDVs); err != nil {
							b.Fatal(err)
						}
					}
					loop := an.Loop
					g.SetRunner(func(worker int, tile grid.Region) { kernels[worker].Run(tile, loop) })
					graphs = append(graphs, g)
					points += blk.Region.Size()
				}
				sweep := func() {
					for _, g := range graphs {
						g.Run()
					}
				}
				sweep() // warm: lowers the tapes and sizes their registers
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sweep()
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(points)), "ns/point")
				b.ReportMetric(float64(graphs[0].Tiles()+graphs[1].Tiles()), "tiles/sweep")
			})
		}
	}
}
