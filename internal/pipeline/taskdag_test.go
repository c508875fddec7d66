package pipeline

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"wavefront/internal/bufpool"
	"wavefront/internal/critpath"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/metrics"
	"wavefront/internal/scan"
	"wavefront/internal/taskdag"
	"wavefront/internal/trace"
	"wavefront/internal/workload"
)

// The task-DAG battery locks down the dynamic scheduler at the
// pipeline layer: bit-identity against the serial oracle (rank 2 in the
// differential corpus, rank 3 here), a seeded schedule-perturbation fuzz,
// an intentional dependency-counter break the corpus must catch, the
// zero-allocation steady-state contract, and the per-worker metrics flush.

// dagDiffBlock is a two-axis forward wavefront over the n×n interior:
// every point reads its primed north and west neighbours, so the tile DAG
// carries a dependence along both dimensions and interior tiles have two
// predecessors.
func dagDiffBlock(n int) *scan.Block {
	return scan.NewScan(grid.Square(2, 1, n),
		scan.Stmt{LHS: expr.Ref("a"), RHS: expr.AddN(
			expr.Const(0.1),
			expr.MulN(expr.Const(0.3), expr.Ref("a").At(grid.Direction{-1, 0}).Prime()),
			expr.MulN(expr.Const(0.3), expr.Ref("a").At(grid.Direction{0, -1}).Prime()),
		)},
	)
}

// dagDiffEnv binds "a" over the n×n box plus a one-cell halo, filled from
// a fixed deterministic stream so every caller sees identical inputs.
func dagDiffEnv(n int) *expr.MapEnv {
	env := &expr.MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{}}
	bounds := grid.Square(2, 0, n)
	f := field.MustNew("a", bounds, field.RowMajor)
	r := rand.New(rand.NewSource(99))
	f.FillFunc(bounds, func(grid.Point) float64 { return 0.5 + r.Float64() })
	env.Arrays["a"] = f
	return env
}

// TestTaskDAGBitIdenticalSweep3D is the rank-3 leg of the differential:
// Sweep3D's eight octants (a dependence along every axis, forward and
// backward loop directions) through a task-DAG session must reproduce the
// serial oracle bit-for-bit at every pool size.
func TestTaskDAGBitIdenticalSweep3D(t *testing.T) {
	n := 16
	ref, err := workload.NewSweep(n, 3, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	for _, dirs := range ref.Octants() {
		if err := scan.Exec(ref.OctantBlock(dirs), ref.Env, scan.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, procs := range []int{1, 2} {
		for _, w := range []int{1, 2, 4, 8} {
			sw, _ := workload.NewSweep(n, 3, field.RowMajor)
			var blocks []*scan.Block
			for _, dirs := range sw.Octants() {
				blocks = append(blocks, sw.OctantBlock(dirs))
			}
			sess, err := NewSession(sw.Env, blocks, SessionConfig{
				Procs: procs, Domain: sw.Inner, Block: 4,
				Scheduler: scan.SchedTaskDAG, Workers: w})
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
			if d := sw.Env.Arrays["flux"].MaxAbsDiff(ref.Inner, ref.Env.Arrays["flux"]); d != 0 {
				t.Errorf("sweep3d flux: taskdag p=%d workers=%d differs from serial by %g", procs, w, d)
			}
		}
	}
}

// TestTaskDAGScheduleOrderFuzz perturbs the pop order 200 ways: each run
// seeds the scheduler's choice among the ready tiles through scan's
// hook, and every resulting dynamic schedule must still produce
// bit-identical output and satisfy the trace validator. A scheduler bug
// that only bites under one interleaving has 200 chances to surface here
// and a named seed when it does.
func TestTaskDAGScheduleOrderFuzz(t *testing.T) {
	defer scan.SetTaskDAGOrderSeed(0)()
	n, procs, workers := 32, 2, 4
	oracle := dagDiffEnv(n)
	blk := dagDiffBlock(n)
	if err := scan.Exec(blk, oracle, scan.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	bounds := grid.Square(2, 0, n)
	runs := 200
	if testing.Short() {
		runs = 25
	}
	for i := 0; i < runs; i++ {
		scan.SetTaskDAGOrderSeed(int64(i)*2654435761 + 1)
		env := dagDiffEnv(n)
		rec := trace.New(procs*(1+workers), 1024)
		cfg := Config{Procs: procs, Block: 4, Scheduler: scan.SchedTaskDAG, Workers: workers, Trace: rec}
		if _, err := Run(blk, env, cfg); err != nil {
			t.Fatalf("seed %d: taskdag run failed: %v", i, err)
		}
		if diff := env.Arrays["a"].MaxAbsDiff(bounds, oracle.Arrays["a"]); diff != 0 {
			t.Fatalf("seed %d: perturbed pop order changed the answer by %g", i, diff)
		}
		if err := trace.ValidateRecorder(rec); err != nil {
			t.Fatalf("seed %d: perturbed schedule failed validation: %v", i, err)
		}
		if i == 0 {
			// Non-vacuity: worker tracing must actually be on, or the
			// validator above is inspecting an empty schedule.
			tiles := 0
			for _, ev := range rec.Events() {
				if ev.Kind == trace.KindTaskTile {
					tiles++
				}
			}
			if tiles == 0 {
				t.Fatal("traced taskdag run recorded no task-tile events; worker tracing is disabled")
			}
		}
	}
}

// TestCorruptedCounterCaughtByDifferential is the intentional break: the
// hook decrements one tile's dependency counter on every graph the run
// builds, letting tile 1 start before its predecessor finishes. The corpus
// machinery — output differential plus trace validator — must catch the
// corruption. The uncorrupted control must stay clean, or the detector
// proves nothing.
func TestCorruptedCounterCaughtByDifferential(t *testing.T) {
	if raceEnabled {
		t.Skip("the corrupted schedule races tiles by design; the race detector would (correctly) fail the run")
	}
	defer scan.SetTaskDAGHook(nil)()
	n := 64
	oracle := dagDiffEnv(n)
	blk := dagDiffBlock(n)
	if err := scan.Exec(blk, oracle, scan.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	bounds := grid.Square(2, 0, n)

	run := func() (float64, error) {
		env := dagDiffEnv(n)
		rec := trace.New(1*(1+4), 2048)
		cfg := Config{Procs: 1, Scheduler: scan.SchedTaskDAG, Workers: 4, Trace: rec}
		if _, err := Run(blk, env, cfg); err != nil {
			t.Fatalf("taskdag run failed: %v", err)
		}
		// The analyzer reads the index the validator checks: what one
		// refuses, the other reports.
		verr := trace.ValidateRecorder(rec)
		rep, _ := critpath.Analyze(rec.Events(), critpath.Options{Procs: 1, Workers: 4, Tolerant: true})
		if (verr != nil) != (len(rep.Violations) > 0) {
			t.Errorf("validator says %v, the critical-path report carries %d violations", verr, len(rep.Violations))
		}
		return env.Arrays["a"].MaxAbsDiff(bounds, oracle.Arrays["a"]), verr
	}

	// Control: no corruption, so both detectors must stay silent.
	if diff, verr := run(); diff != 0 || verr != nil {
		t.Fatalf("uncorrupted control failed (diff=%g, validate=%v); the detectors are miscalibrated", diff, verr)
	}

	// Tile 1's only predecessor is tile 0; dropping its counter to zero
	// seeds both as initially ready, so they overlap. Slowing tile 0 pins
	// the overlap open past worker wake-up latency, so either tile 1 reads
	// stale west-halo values (output differential fires) or the validator
	// sees its dependence edge start before tile 0 ended.
	scan.SetTaskDAGHook(func(g *taskdag.Graph) {
		_ = g.CorruptCounter(1)
		slow := fmt.Sprint(g.TileRegion(0))
		base := g.Runner()
		g.SetRunner(func(w int, tile grid.Region) {
			if fmt.Sprint(tile) == slow {
				time.Sleep(2 * time.Millisecond)
			}
			base(w, tile)
		})
	})
	detected := false
	for attempt := 0; attempt < 20 && !detected; attempt++ {
		diff, verr := run()
		detected = diff != 0 || verr != nil
		if detected {
			t.Logf("attempt %d: corruption detected (diff=%g, validate=%v)", attempt, diff, verr)
		}
	}
	if !detected {
		t.Error("20 corrupted runs slipped past both the output differential and the trace validator")
	}
}

// taskdagAllocsPerExec mirrors sessionAllocsPerExec under the task-DAG
// scheduler: steady-state Execs of the Tomcatv forward wavefront through a
// persistent pooled session, measured on rank 0 while the peers run a
// matched count.
func taskdagAllocsPerExec(t *testing.T, procs, workers int, pooled bool) float64 {
	t.Helper()
	tom, err := workload.NewTomcatv(48, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	blk := tom.ForwardBlock()
	cfg := SessionConfig{Procs: procs, Domain: tom.All, Block: 8,
		Scheduler: scan.SchedTaskDAG, Workers: workers}
	if pooled {
		cfg.Pool = bufpool.New(procs)
	}
	sess, err := NewSession(tom.Env, []*scan.Block{blk}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var allocs float64
	err = sess.Run(func(r *Rank) error {
		exec := func() {
			if err := r.Exec(blk); err != nil {
				panic(err)
			}
		}
		if r.ID() == 0 {
			for i := 0; i < allocWarm; i++ {
				exec()
			}
			allocs = testing.AllocsPerRun(allocRuns, exec)
			return nil
		}
		for i := 0; i < allocWarm+allocRuns+1; i++ {
			exec()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return allocs
}

// TestSteadyWaveZeroAllocsTaskDAG extends the zero-allocation contract to
// the dynamic scheduler: once the portion graph, per-worker kernels, and
// pool free lists are warm, a steady-state DAG Exec — receives, a full
// work-stolen tile sweep, sends — allocates nothing, at 2 and 4 workers.
func TestSteadyWaveZeroAllocsTaskDAG(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	for _, procs := range []int{1, 2} {
		for _, workers := range []int{2, 4} {
			if got := taskdagAllocsPerExec(t, procs, workers, true); got != 0 {
				t.Errorf("procs=%d workers=%d: steady-state taskdag Exec allocated %.0f times per wave, want 0",
					procs, workers, got)
			}
		}
	}
}

// TestSteadyWaveTaskDAGAllocBaseline is the non-vacuity check: the same
// schedule without pooling must allocate, or the zero assertion above has
// stopped measuring anything.
func TestSteadyWaveTaskDAGAllocBaseline(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	base := taskdagAllocsPerExec(t, 2, 2, false)
	if base == 0 {
		t.Error("pooling off allocated nothing per steady-state taskdag Exec; the measurement is broken")
	}
	t.Logf("taskdag baseline without pooling: %.0f allocs per steady-state Exec (pooled: 0)", base)
}

// TestTaskDAGSessionMetrics checks the per-worker counters reach the
// registry through a session: tiles executed land in the per-rank shards
// and every park has a matching unpark once the runs settle.
func TestTaskDAGSessionMetrics(t *testing.T) {
	tom, err := workload.NewTomcatv(48, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	blk := tom.ForwardBlock()
	reg := metrics.New(2)
	sess, err := NewSession(tom.Env, []*scan.Block{blk}, SessionConfig{
		Procs: 2, Domain: tom.All, Block: 8,
		Scheduler: scan.SchedTaskDAG, Workers: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Run(func(r *Rank) error {
		for i := 0; i < 3; i++ {
			if err := r.Exec(blk); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tiles := reg.Counter(metrics.TaskTiles).Value()
	if tiles == 0 {
		t.Error("taskdag session flushed no tile executions into the registry")
	}
	for r := 0; r < 2; r++ {
		if reg.Counter(metrics.TaskTiles).Rank(r) == 0 {
			t.Errorf("rank %d flushed no tile executions; both ranks ran DAGs", r)
		}
	}
	parks := reg.Counter(metrics.TaskParks).Value()
	unparks := reg.Counter(metrics.TaskUnparks).Value()
	if parks != unparks {
		t.Errorf("parks (%d) != unparks (%d) after all runs settled", parks, unparks)
	}
}
