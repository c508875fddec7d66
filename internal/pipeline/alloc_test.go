package pipeline

import (
	"slices"
	"testing"

	"wavefront/internal/bufpool"
	"wavefront/internal/critpath"
	"wavefront/internal/field"
	"wavefront/internal/scan"
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
// the Tomcatv forward wavefront through a persistent session: the mallocs
// of every measured lockstep pass (see lockstepPasses). The forward sweep
// is rank-2 (the kernel's allocation-free fast path) and carries the
// pipelined boundary messages; its only halo read, aa@north, is of an array
// the block never dirties, so no exchange reins the head rank in and —
// like the multi-octant family — the ranks must be held in lockstep for
// the count to mean per-wave cost rather than pool misses of a rank that
// ran a dozen sweeps ahead on AllocsPerRun's single P.
func sessionAllocsPerExec(t *testing.T, procs int, pooled, postmortem bool) []uint64 {
	t.Helper()
	tom, err := workload.NewTomcatv(48, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	blk := tom.ForwardBlock()
	cfg := SessionConfig{Procs: procs, Domain: tom.All, Block: 8}
	if pooled {
		cfg.Pool = bufpool.New(procs)
	}
	if postmortem {
		cfg.Postmortem = critpath.NewPostmortem("")
	}
	sess, err := NewSession(tom.Env, []*scan.Block{blk}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lockstepPasses(t, sess, func(r *Rank) error { return r.Exec(blk) })
}

// TestSteadyWaveZeroAllocs is the acceptance gate: pooled steady-state
// waves allocate nothing, single-rank and across a real pipeline.
func TestSteadyWaveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	for _, procs := range []int{1, 2, 4} {
		passes := sessionAllocsPerExec(t, procs, true, false)
		if err := steadyVerdict(passes); err != nil {
			t.Errorf("procs=%d: steady-state Exec with pooling on: %v; mallocs per measured pass: %v", procs, err, passes)
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
		passes := sessionAllocsPerExec(t, procs, true, true)
		if err := steadyVerdict(passes); err != nil {
			t.Errorf("procs=%d: steady-state Exec with the flight recorder armed: %v; mallocs per measured pass: %v", procs, err, passes)
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
		passes := lockstepPasses(t, sess, func(r *Rank) error { return r.Exec(blk) })
		if err := steadyVerdict(passes); err != nil {
			t.Errorf("procs=%d: rank-3 steady-state Exec with pooling on: %v; mallocs per measured pass: %v", procs, err, passes)
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
	base := slices.Min(sessionAllocsPerExec(t, 2, false, false))
	if base == 0 {
		t.Error("pooling off allocated nothing in some steady-state Exec; the measurement is broken")
	}
	t.Logf("baseline without pooling: at least %d allocs per steady-state Exec (pooled: 0)", base)
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
