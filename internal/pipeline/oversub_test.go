package pipeline

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"wavefront/internal/comm"
	"wavefront/internal/fault"
	"wavefront/internal/grid"
	"wavefront/internal/scan"
	"wavefront/internal/trace"
)

// TestWaitsHandOverTheProcessor runs the corpus and the chaos legs with far
// more ranks than Ps — eight ranks on GOMAXPROCS 2 and on GOMAXPROCS 1. A
// blocked rank yield-spins before it parks (comm's spinWait); with one P
// the spin must hand the processor to a runnable rank on every turn, never
// hold it, so every leg still ends the way it does at GOMAXPROCS ≥ p:
// bit-identical to serial where the run completes (plain, a capacity-1
// link, delayed sends, the task DAG), a structured deadlock where a link is
// starved. The whole matrix takes well under a second; the deadline is what
// a spin that holds its P would run into.
func TestWaitsHandOverTheProcessor(t *testing.T) {
	const procs = 8
	seeds := []int64{3, 7, 10, 13, 33, 41}
	bounds := genBounds()
	deadline := time.Now().Add(2 * time.Minute)
	for _, maxProcs := range []int{1, 2} {
		ran, starved := 0, 0
		prev := runtime.GOMAXPROCS(maxProcs)
		for _, seed := range seeds {
			blk := genScanBlock(rand.New(rand.NewSource(seed)))
			serialEnv := genEnv(seed)
			if err := scan.Exec(blk, serialEnv, scan.ExecOptions{}); err != nil {
				t.Fatalf("seed %d: serial exec failed: %v", seed, err)
			}
			for _, block := range []int{1, 3} {
				run := func(leg string, cfg Config) (*Stats, error) {
					cfg.Procs, cfg.Block = procs, block
					env := genEnv(seed)
					st, err := Run(blk, env, cfg)
					if err != nil {
						return st, err
					}
					for _, name := range genNames {
						if diff := env.Arrays[name].MaxAbsDiff(bounds, serialEnv.Arrays[name]); diff != 0 {
							t.Errorf("GOMAXPROCS=%d seed %d b=%d %s: array %q differs from serial by %g",
								maxProcs, seed, block, leg, name, diff)
						}
					}
					return st, nil
				}
				rec := trace.New(procs, trace.DefaultCapacity)
				stats, err := run("plain", Config{Trace: rec})
				if errors.Is(err, ErrUnsupported) || err != nil && strings.Contains(err.Error(), "thinner than dependence depth") {
					continue // honestly refused: 14 rows over 8 ranks leave one-row slabs
				}
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d seed %d b=%d: %v", maxProcs, seed, block, err)
				}
				ran++
				if err := trace.ValidateRecorder(rec); err != nil {
					t.Errorf("GOMAXPROCS=%d seed %d b=%d: schedule validation failed: %v", maxProcs, seed, block, err)
				}
				if _, err := run("taskdag", Config{Scheduler: scan.SchedTaskDAG, Workers: 2}); err != nil {
					t.Errorf("GOMAXPROCS=%d seed %d b=%d taskdag: %v", maxProcs, seed, block, err)
				}
				if stats.Comm.Messages == 0 {
					continue // nothing pipelines: no link to bound, delay or starve
				}
				src, dst := 0, 1
				if stats.Loop.Dirs[stats.WavefrontDim] == grid.HighToLow {
					src, dst = procs-1, procs-2
				}
				if _, err := run("bounded", Config{LinkCapacity: 1}); err != nil {
					t.Errorf("GOMAXPROCS=%d seed %d b=%d bounded: %v", maxProcs, seed, block, err)
				}
				rule := fault.Rule{Op: fault.OpSend, Rank: src, Peer: dst, Tag: fault.Any}
				rule.Times, rule.Action, rule.Delay = 2, fault.ActDelay, 200*time.Microsecond
				if _, err := run("delay", Config{Faults: fault.MustNew(fault.Plan{Seed: seed, Rules: []fault.Rule{rule}})}); err != nil {
					t.Errorf("GOMAXPROCS=%d seed %d b=%d delay: %v", maxProcs, seed, block, err)
				}
				rule.Times, rule.Action = -1, fault.ActDrop
				_, err = run("drop", Config{Faults: fault.MustNew(fault.Plan{Seed: seed, Rules: []fault.Rule{rule}})})
				var dl *comm.DeadlockError
				if !errors.As(err, &dl) {
					t.Errorf("GOMAXPROCS=%d seed %d b=%d drop: a starved link must be diagnosed as a deadlock, got: %v",
						maxProcs, seed, block, err)
				} else if want := fmt.Sprintf("rank %d blocked in recv from rank %d", dst, src); !strings.Contains(dl.Error(), want) {
					t.Errorf("GOMAXPROCS=%d seed %d b=%d drop: diagnosis does not name the starved link:\n%v",
						maxProcs, seed, block, dl)
				}
				starved++
				if time.Now().After(deadline) {
					t.Fatalf("GOMAXPROCS=%d: the matrix overran its deadline", maxProcs)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
		if ran < 6 || starved < 3 {
			t.Errorf("GOMAXPROCS=%d: only %d configurations ran at p = %d, %d with a link to starve", maxProcs, ran, procs, starved)
		}
		t.Logf("GOMAXPROCS=%d: %d configurations at p = %d, %d with chaos legs", maxProcs, ran, procs, starved)
	}
}
