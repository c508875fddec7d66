package pipeline

import (
	"runtime"
	"testing"

	"wavefront/internal/bufpool"
	"wavefront/internal/critpath"
	"wavefront/internal/field"
	"wavefront/internal/metrics"
	"wavefront/internal/scan"
	"wavefront/internal/trace"
	"wavefront/internal/workload"
)

// The allocation-regression suite pins the PR's central contract: with a
// buffer pool attached, a steady-state wave — halo exchange, upstream
// receives, tile computes, downstream sends — performs zero heap
// allocations per Exec. The companion baseline test documents what the
// same schedule costs without the pool, so a regression report always
// shows both sides of the ledger.

const (
	// allocWarm executions fill every cache the hot path consults: the
	// compiled kernel, the block portion, the execPlan, and — with a pool —
	// the per-class free lists (the first wave's leases all miss).
	allocWarm = 3
	// allocRuns is the AllocsPerRun sample count. AllocsPerRun floors the
	// per-run average, so stray one-off allocations (e.g. a transient
	// deadlock-watchdog probe) below one-per-run do not flake the zero
	// assertion, while a genuine per-wave allocation still reads >= 1.
	allocRuns = 10
)

// sessionAllocsPerExec measures heap allocations per steady-state Exec of
// the Tomcatv forward wavefront through a persistent session. Rank 0 runs
// the measured executions; every other rank executes the same count so the
// pipeline stays matched. The forward sweep is rank-2 (the kernel's
// allocation-free fast path) and dirties its arrays every run, so each
// measured Exec carries a full coalesced halo exchange plus the pipelined
// boundary messages.
func sessionAllocsPerExec(t *testing.T, procs int, pooled, postmortem bool) float64 {
	t.Helper()
	return sessionAllocsWith(t, procs, func(cfg *SessionConfig) {
		if pooled {
			cfg.Pool = bufpool.New(procs)
		}
		if postmortem {
			cfg.Postmortem = critpath.NewPostmortem("")
		}
	})
}

// sessionAllocsWith is sessionAllocsPerExec under any configuration.
func sessionAllocsWith(t *testing.T, procs int, set func(*SessionConfig)) float64 {
	t.Helper()
	tom, err := workload.NewTomcatv(48, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	blk := tom.ForwardBlock()
	cfg := SessionConfig{Procs: procs, Domain: tom.All, Block: 8}
	set(&cfg)
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
			// AllocsPerRun invokes exec allocRuns+1 times (one extra
			// warmup), so the peers below run allocRuns+1 past their warm
			// phase to match.
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

// TestSteadyWaveZeroAllocs is the acceptance gate: pooled steady-state
// waves allocate nothing, single-rank and across a real pipeline.
func TestSteadyWaveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	for _, procs := range []int{1, 2, 4} {
		if got := sessionAllocsPerExec(t, procs, true, false); got != 0 {
			t.Errorf("procs=%d: steady-state Exec allocated %.0f times per wave with pooling on, want 0", procs, got)
		}
	}
}

// TestSteadyWaveZeroAllocsPostmortem locks the flight recorder into the
// same contract: arming it makes the session record every operation into
// the preallocated flight ring, and a pooled steady-state wave must still
// allocate nothing.
func TestSteadyWaveZeroAllocsPostmortem(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	for _, procs := range []int{1, 4} {
		if got := sessionAllocsPerExec(t, procs, true, true); got != 0 {
			t.Errorf("procs=%d: steady-state Exec allocated %.0f times per wave with the flight recorder armed, want 0", procs, got)
		}
	}
}

// TestSteadyWaveZeroAllocsObserved: a site hands its event to the run's
// Observer by value and the Observer is one concrete type, so with a
// recorder and a registry both attached a pooled steady-state wave still
// allocates nothing.
func TestSteadyWaveZeroAllocsObserved(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	for _, procs := range []int{1, 4} {
		got := sessionAllocsWith(t, procs, func(cfg *SessionConfig) {
			cfg.Pool, cfg.Metrics = bufpool.New(procs), metrics.New(procs)
			cfg.Trace = trace.New(procs, 1<<12)
		})
		if got != 0 {
			t.Errorf("procs=%d: steady-state Exec allocated %.0f times per wave with a recorder and a registry attached, want 0", procs, got)
		}
	}
}

// TestSteadyWaveZeroAllocsRank3 locks the same contract in for rank 3,
// where the tape engine runs in forced-scalar mode (Sweep3D carries a
// dependence along every axis): a pooled steady-state octant sweep must
// not allocate either, single-rank and pipelined.
func TestSteadyWaveZeroAllocsRank3(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	for _, procs := range []int{1, 2, 4} {
		sw, err := workload.NewSweep(24, 3, field.RowMajor)
		if err != nil {
			t.Fatal(err)
		}
		blk := sw.OctantBlock(sw.Octants()[0])
		cfg := SessionConfig{Procs: procs, Domain: sw.Inner, Block: 6,
			Pool: bufpool.New(procs)}
		sess, err := NewSession(sw.Env, []*scan.Block{blk}, cfg)
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
		if allocs != 0 {
			t.Errorf("procs=%d: rank-3 steady-state Exec allocated %.0f times per wave with pooling on, want 0", procs, allocs)
		}
	}
}

// TestSteadyWaveAllocBaseline documents the pooling-off cost on the same
// schedule: every message leases a fresh buffer, so a multi-rank steady
// wave must allocate. If this ever reads zero the zero-alloc test above
// has stopped measuring anything.
func TestSteadyWaveAllocBaseline(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	base := sessionAllocsPerExec(t, 2, false, false)
	if base == 0 {
		t.Error("pooling off allocated nothing per steady-state Exec; the measurement is broken")
	}
	t.Logf("baseline without pooling: %.0f allocs per steady-state Exec (pooled: 0)", base)
}

// TestRunPoolReuseAcrossRuns: a pool shared across Run calls keeps its
// free lists warm, so the second run's leases hit instead of allocating,
// and every leased buffer is back in the pool when the topology drains.
func TestRunPoolReuseAcrossRuns(t *testing.T) {
	tom, err := workload.NewTomcatv(32, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	pool := bufpool.New(4)
	cfg := DefaultConfig(4, 4)
	cfg.Pool = pool
	for i := 0; i < 2; i++ {
		stats, err := Run(tom.ForwardBlock(), tom.Env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Pool == nil {
			t.Fatal("pooled run returned nil Stats.Pool")
		}
	}
	st := pool.Stats()
	if st.Hits == 0 {
		t.Errorf("second pooled run recorded no pool hits: %+v", st)
	}
	if out := pool.Outstanding(); out != 0 {
		t.Errorf("%d buffers still leased after runs completed", out)
	}
}

// TestOneShotGarbageCeiling pins what a one-shot Run of the Tomcatv forward
// block leaves for the collector at n = 128, b = 16 — at p = 2 the shape the
// repository benchmark's cold_oneshot runs, where that garbage buys a
// collection every few calls and the collection is a fifth of the op. The
// ranks read aa and dd where the caller keeps them and compute d, r, rx and
// ry in the caller's rows, every rank but the head reading its pipelined
// halo rows where the upstream rank wrote them, so nothing is copied,
// scattered or gathered, no message carries rows and no phase barrier is
// built, and a kernel is lowered once, not lowered and compiled, into
// tables each allocated once: about 28 KB and 229 allocations a Run at
// p = 2, 51 KB and 390 at p = 4 (34 KB and 333, 59 KB and 560 while the
// lowering's tables grew a field at a time and the analysis a reference at
// a time; 241 KB and 509 at p = 2 with rank 1's copies of d, rx and ry;
// 569 KB and 536 with a copy of every written array, 842 KB and 763 with a
// copy of every array and both compilations). The ceilings sit just above,
// so one array copied again, a second compilation or a table grown by
// append again fails here before a benchmark has to find it.
func TestOneShotGarbageCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	tom, err := workload.NewTomcatv(128, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	blk := tom.ForwardBlock()
	for _, c := range []struct {
		procs               int
		maxBytes, maxAllocs uint64
	}{
		{2, 32 << 10, 245},
		{4, 56 << 10, 415},
	} {
		run := func() {
			if _, err := Run(blk, tom.Env, DefaultConfig(c.procs, 16)); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm: runtime threads, sudogs, the first topology's one-offs
		const runs = 20
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&m1)
		bytes := (m1.TotalAlloc - m0.TotalAlloc) / runs
		allocs := (m1.Mallocs - m0.Mallocs) / runs
		t.Logf("one-shot Run at p = %d: %d bytes, %d allocations", c.procs, bytes, allocs)
		if bytes > c.maxBytes {
			t.Errorf("p = %d: a one-shot Run allocates %d bytes, want at most %d", c.procs, bytes, c.maxBytes)
		}
		if allocs > c.maxAllocs {
			t.Errorf("p = %d: a one-shot Run allocates %d times, want at most %d", c.procs, allocs, c.maxAllocs)
		}
	}
}

// TestSessionRunAllocsPinned holds what re-entering a warm session costs,
// so that nothing the ownership table decides once, and nothing the
// session keeps of its ranks, is paid per Run again: an empty body on the
// Tomcatv program at n = 512, p = 2, b = 32 with a pool — the repository
// benchmark's session_rerun_allocs probe, rank rebuild, scatter and gather
// — read 167 allocations a Run before the table (135 with it, 129 once the
// ranks' per-Run maps went); one iteration of that program — its five
// blocks and the residual Reduce, steady_session's op — read 1459 while
// every Run cut its schedules and lowered its kernels and reduction
// operands again, 217 with them kept; one forward and one backward sweep of
// a one-rank task-DAG session at two workers, taskdag_tiles' shape, read
// 447–451 (432–434 with the table, 344 with the schedules kept, 223 once
// the per-Run worker kernels lowered into tables each allocated once, 27
// once the rank kept its pool, tile graphs and worker kernels with their
// registers across Runs). Since the session keeps its topology, rank
// goroutines and Ranks too, what is left is the Run's copies — four
// allocations each, 16 of them in the empty Run, which reads 67; the
// iteration reads 91 and the task-DAG Run, which copies nothing, 1.
func TestSessionRunAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	tom, err := workload.NewTomcatv(512, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	fwd, bwd, blocks := tom.ForwardBlock(), tom.BackwardBlock(), tom.Blocks()
	for _, c := range []struct {
		name      string
		blocks    []*scan.Block
		cfg       Config
		body      func(r *Rank) error
		maxAllocs float64
	}{
		{"rerun-empty", tom.Blocks(), Config{Procs: 2, Domain: tom.All, Block: 32, Pool: bufpool.New(2)},
			func(*Rank) error { return nil }, 75},
		{"steady-session", blocks, Config{Procs: 2, Domain: tom.All, Block: 32, Pool: bufpool.New(2)},
			func(r *Rank) error {
				for _, b := range blocks {
					if err := r.Exec(b); err != nil {
						return err
					}
				}
				_, err := r.Reduce(scan.MaxReduce, tom.Interior, residOperand())
				return err
			}, 100},
		{"taskdag-tiles", []*scan.Block{fwd, bwd},
			Config{Procs: 1, Domain: tom.All, Block: 32, Scheduler: scan.SchedTaskDAG, Workers: 2},
			func(r *Rank) error {
				if err := r.Exec(fwd); err != nil {
					return err
				}
				return r.Exec(bwd)
			}, 8},
	} {
		sess, err := NewSession(tom.Env, c.blocks, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if err := sess.Run(c.body); err != nil {
				t.Fatal(err)
			}
		}
		run()
		got := testing.AllocsPerRun(5, run)
		t.Logf("%s: %.0f allocations a Run", c.name, got)
		if got > c.maxAllocs {
			t.Errorf("%s: a warm session Run allocates %.0f times, want at most %.0f", c.name, got, c.maxAllocs)
		}
	}
}
