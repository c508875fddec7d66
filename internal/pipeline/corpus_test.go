package pipeline

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"wavefront/internal/bufpool"
	"wavefront/internal/critpath"
	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/grid"
	"wavefront/internal/scan"
	"wavefront/internal/trace"
)

// TestDifferentialCorpus is the differential regression corpus: a fixed
// seed table of generated scan blocks, each swept across rank counts, tile
// widths, and dimension-override combinations, checking on every accepted
// configuration that (a) the pipelined result is bit-identical to serial
// execution and (b) the recorded schedule passes the wavefront safety
// validator. Unlike the fuzzer, the corpus is fully deterministic, so a
// regression names the exact (seed, procs, block, dims) cell that broke.
func TestDifferentialCorpus(t *testing.T) {
	// Seeds chosen so every block is legal and most carry a cross-rank true
	// dependence (a real wavefront, not just parallel work).
	seeds := []int64{3, 7, 10, 13, 33, 41}
	procs := []int{1, 2, 3, 4}
	blocks := []int{0, 1, 3, 7}
	dims := []struct{ w, t int }{{-1, -1}, {0, 1}, {1, 0}}
	bounds := genBounds()

	ran := 0
	for _, seed := range seeds {
		blk := genScanBlock(rand.New(rand.NewSource(seed)))
		if _, err := scan.Analyze(blk, dep.Preference{PreferLow: true}); err != nil {
			t.Fatalf("seed %d: corpus block is illegal (%v); pick another seed\n%s", seed, err, blk)
		}
		// The oracle is the closure engine, which shares no lowering with
		// the tape every rank runs.
		serialEnv := genEnv(seed)
		if err := scan.Exec(blk, serialEnv, scan.ExecOptions{Engine: scan.EngineClosure}); err != nil {
			t.Fatalf("seed %d: serial exec failed: %v\n%s", seed, err, blk)
		}
		for _, p := range procs {
			for _, b := range blocks {
				for _, d := range dims {
					cfg := Config{Procs: p, Block: b, Trace: trace.New(p, trace.DefaultCapacity)}
					parEnv := genEnv(seed)
					stats, err := runDims(blk, parEnv, cfg, d.w, d.t)
					if err != nil {
						if errors.Is(err, ErrUnsupported) {
							continue // honestly refused for this decomposition
						}
						t.Fatalf("seed %d p=%d b=%d dims=(%d,%d): unexpected error: %v\n%s",
							seed, p, b, d.w, d.t, err, blk)
					}
					ran++
					for _, name := range genNames {
						if diff := parEnv.Arrays[name].MaxAbsDiff(bounds, serialEnv.Arrays[name]); diff != 0 {
							t.Errorf("seed %d p=%d b=%d dims=(%d,%d): array %q differs by %g\n%s",
								seed, p, b, d.w, d.t, name, diff, blk)
						}
					}
					if d.w == -1 && d.t == -1 {
						// Pooled leg of the differential: same cell with a
						// buffer pool attached must stay bit-identical.
						poolEnv := genEnv(seed)
						pcfg := Config{Procs: p, Block: b, Pool: bufpool.New(p)}
						if _, err := Run(blk, poolEnv, pcfg); err != nil {
							t.Fatalf("seed %d p=%d b=%d: pooled run failed where unpooled passed: %v\n%s",
								seed, p, b, err, blk)
						}
						for _, name := range genNames {
							if diff := poolEnv.Arrays[name].MaxAbsDiff(bounds, parEnv.Arrays[name]); diff != 0 {
								t.Errorf("seed %d p=%d b=%d: pooled array %q differs from unpooled by %g\n%s",
									seed, p, b, name, diff, blk)
							}
						}
						// Scheduler leg: the same cell under the task-DAG
						// scheduler, swept across pool sizes,
						// must stay bit-identical to the serial oracle and
						// pass the dynamic-schedule validator. The recorder
						// carries p*(1+w) rings so every DAG worker records.
						// Three workers cut a dependence-free span
						// dimension into ragged chunks (8 + 6 of 14 points,
						// neither a multiple of the tape's unroll).
						for _, w := range []int{1, 2, 3, 4, 8} {
							dagEnv := genEnv(seed)
							dagTrace := trace.New(p*(1+w), 1024)
							dcfg := Config{Procs: p, Block: b, Scheduler: scan.SchedTaskDAG, Workers: w, Trace: dagTrace}
							if _, err := Run(blk, dagEnv, dcfg); err != nil {
								t.Fatalf("seed %d p=%d b=%d workers=%d: taskdag run failed where static passed: %v\n%s",
									seed, p, b, w, err, blk)
							}
							for _, name := range genNames {
								if diff := dagEnv.Arrays[name].MaxAbsDiff(bounds, serialEnv.Arrays[name]); diff != 0 {
									t.Errorf("seed %d p=%d b=%d workers=%d: taskdag array %q differs from serial by %g\n%s",
										seed, p, b, w, name, diff, blk)
								}
							}
							if err := trace.ValidateRecorder(dagTrace); err != nil {
								t.Errorf("seed %d p=%d b=%d workers=%d: taskdag schedule validation failed: %v",
									seed, p, b, w, err)
							}
						}
					}
					if err := trace.ValidateRecorder(cfg.Trace); err != nil {
						t.Errorf("seed %d p=%d b=%d dims=(%d,%d): schedule validation failed: %v",
							seed, p, b, d.w, d.t, err)
					}
					if stats.Summary == nil {
						t.Errorf("seed %d p=%d b=%d: traced run returned nil Summary", seed, p, b)
					}
				}
			}
		}
	}
	// The corpus must actually exercise the runtime: with 6 seeds and 48
	// configurations each, well over half should be accepted.
	if ran < 100 {
		t.Errorf("corpus ran only %d accepted configurations; expected >= 100", ran)
	}
	t.Logf("corpus: %d accepted configurations validated", ran)
}

// TestValidatorCatchesIntentionalBreak tampers with a genuinely recorded
// schedule — sliding one dependent tile's compute span to before its
// upstream boundary message — and requires the validator to reject it.
// This guards the guard: a validator that accepts everything would pass
// every other test in this file.
func TestValidatorCatchesIntentionalBreak(t *testing.T) {
	blk := genScanBlock(rand.New(rand.NewSource(7)))
	rec := trace.New(3, trace.DefaultCapacity)
	cfg := DefaultConfig(3, 3)
	cfg.Trace = rec
	env := genEnv(7)
	if _, err := Run(blk, env, cfg); err != nil {
		t.Fatalf("traced run failed: %v", err)
	}
	events := rec.Events()
	if err := trace.Validate(events); err != nil {
		t.Fatalf("untampered trace must validate: %v", err)
	}
	// The analyzer reads the index the validator checks.
	violations := func() int {
		rep, _ := critpath.Analyze(events, critpath.Options{Procs: 3, Tolerant: true})
		return len(rep.Violations)
	}
	if n := violations(); n != 0 {
		t.Fatalf("the critical-path report of the untampered trace carries %d violations", n)
	}
	// Find a compute that depends on an upstream boundary message and move
	// it to the beginning of time, before any message could have arrived.
	broke := false
	for i := range events {
		ev := &events[i]
		if ev.Kind == trace.KindCompute && ev.Need >= 0 && ev.Peer >= 0 {
			ev.Start, ev.End = 0, 1
			broke = true
			break
		}
	}
	if !broke {
		t.Fatal("no dependent compute event in trace; generator produced a non-wavefront block")
	}
	err := trace.Validate(events)
	if err == nil {
		t.Fatal("validator accepted a schedule with a compute moved before its boundary message")
	}
	t.Logf("validator correctly rejected tampered schedule: %v", err)
	if violations() == 0 {
		t.Error("the critical-path report of the tampered schedule carries no violation")
	}
}

// TestTracingDefaultOff pins the contract that tracing is opt-in: the
// default configurations carry no recorder and produce no summary.
func TestTracingDefaultOff(t *testing.T) {
	if cfg := DefaultConfig(4, 8); cfg.Trace != nil {
		t.Fatal("DefaultConfig must not enable tracing")
	}
	blk := genScanBlock(rand.New(rand.NewSource(7)))
	env := genEnv(1)
	stats, err := Run(blk, env, DefaultConfig(2, 3))
	if err != nil {
		t.Fatalf("untraced run failed: %v", err)
	}
	if stats.Summary != nil {
		t.Fatal("untraced run must return a nil Summary")
	}
}

// TestDifferentialCorpusReduce is the corpus's reduce leg: after each
// corpus block has run in a session, +<<, max<< and min<< fold operands
// drawn over the block's arrays — shifted along both dimensions, across the
// slab boundary as far as the session's halos reach, so a fold right after
// the block must refresh the halos the block dirtied — serially and at
// p = 1..4. Max and min must match the serial closure fold bit for bit
// everywhere; a sum does at p = 1 and within rounding of the partial-sum
// association beyond.
func TestDifferentialCorpusReduce(t *testing.T) {
	seeds := []int64{3, 7, 10, 13, 33, 41}
	ops := []scan.ReduceOp{scan.SumReduce, scan.MaxReduce, scan.MinReduce}
	region := genRegion()
	ran := 0
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		blk := genScanBlock(rng)
		for _, p := range []int{1, 2, 3, 4} {
			env := genEnv(seed)
			sess, err := NewSession(env, []*scan.Block{blk}, SessionConfig{Procs: p, Domain: region, Block: 3})
			if errors.Is(err, ErrUnsupported) {
				continue // this block does not decompose along dimension 0
			}
			if err != nil {
				t.Fatalf("seed %d p=%d: %v\n%s", seed, p, err, blk)
			}
			ran++
			// Operands may reach across the slab boundary exactly as far
			// as the block's own references made the session allocate.
			orng := rand.New(rand.NewSource(seed * 31))
			ref := func() expr.Node {
				name := sess.names[orng.Intn(len(sess.names))] // the arrays the block touches
				h := sess.halos[name]
				d0 := orng.Intn(h.neg[0]+h.pos[0]+1) - h.neg[0]
				d1 := orng.Intn(2*genHalo+1) - genHalo
				return expr.Ref(name).At(grid.Direction{d0, d1})
			}
			operands := []expr.Node{
				ref(),
				expr.Call{Fn: expr.Max, Args: []expr.Node{expr.Call{Fn: expr.Abs, Args: []expr.Node{ref()}}, ref()}},
				expr.Binary{Op: expr.Sub, L: expr.MulN(expr.Const(0.5), ref()), R: ref()},
			}
			got := make([]float64, 0, len(operands)*len(ops))
			err = sess.Run(func(r *Rank) error {
				if err := r.Exec(blk); err != nil {
					return err
				}
				for _, node := range operands {
					for _, op := range ops {
						v, err := r.Reduce(op, region, node)
						if err != nil {
							return err
						}
						if r.ID() == 0 {
							got = append(got, v)
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("seed %d p=%d: %v\n%s", seed, p, err, blk)
			}
			// env now holds the gathered arrays: the serial oracle folds
			// over them with the closure engine.
			i := 0
			for _, node := range operands {
				for _, op := range ops {
					rd := scan.NewReducer(node, env)
					rd.SetEngine(scan.EngineClosure)
					want, err := rd.Reduce(op, region)
					if err != nil {
						t.Fatal(err)
					}
					same := math.Float64bits(got[i]) == math.Float64bits(want)
					if op == scan.SumReduce && p > 1 {
						same = math.Abs(got[i]-want) <= 1e-12*math.Abs(want)
					}
					if !same {
						t.Errorf("seed %d p=%d: %v %s = %v, serial closure fold %v\n%s", seed, p, op, node, got[i], want, blk)
					}
					i++
				}
			}
		}
	}
	if ran < 12 {
		t.Errorf("only %d of 24 session cells were accepted; the reduce leg exercises too little", ran)
	}
}
