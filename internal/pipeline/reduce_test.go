package pipeline

import (
	"errors"
	"math"
	"strings"
	"testing"

	"wavefront/internal/bufpool"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/metrics"
	"wavefront/internal/scan"
	"wavefront/internal/trace"
	"wavefront/internal/workload"
)

// residOperand is Tomcatv's convergence test, max(|rx|, |ry|).
func residOperand() expr.Node {
	return expr.Call{Fn: expr.Max, Args: []expr.Node{
		expr.Call{Fn: expr.Abs, Args: []expr.Node{expr.Ref("rx")}},
		expr.Call{Fn: expr.Abs, Args: []expr.Node{expr.Ref("ry")}}}}
}

// reduceAllocs measures heap allocations per warm Rank.Reduce of the
// Tomcatv residual at n = 64 (a portion large enough for the tape fold),
// with rank 0 measuring and the others keeping step. regions are cycled
// through call by call.
func reduceAllocs(t *testing.T, procs int, pooled bool, regions ...grid.Region) float64 {
	t.Helper()
	tom, err := workload.NewTomcatv(64, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) == 0 {
		regions = []grid.Region{tom.Interior}
	}
	cfg := SessionConfig{Procs: procs, Domain: tom.All, Block: 8}
	if pooled {
		cfg.Pool = bufpool.New(procs)
	}
	sess, err := NewSession(tom.Env, tom.Blocks(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	node := residOperand()
	var allocs float64
	err = sess.Run(func(r *Rank) error {
		calls := 0
		reduce := func() {
			if _, err := r.Reduce(scan.MaxReduce, regions[calls%len(regions)], node); err != nil {
				panic(err)
			}
			calls++
		}
		if r.ID() == 0 {
			for i := 0; i < allocWarm; i++ {
				reduce()
			}
			allocs = testing.AllocsPerRun(allocRuns, reduce)
			return nil
		}
		for i := 0; i < allocWarm+allocRuns+1; i++ {
			reduce()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return allocs
}

// TestSteadyReduceZeroAllocs: a warm reduction — cached operand, memoised
// portion and halo list, pooled registers and all-reduce payloads —
// allocates nothing, alone and across a real all-reduce.
func TestSteadyReduceZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	for _, procs := range []int{1, 2} {
		if got := reduceAllocs(t, procs, true); got != 0 {
			t.Errorf("procs=%d: warm Rank.Reduce allocated %.0f times with pooling on, want 0", procs, got)
		}
	}
}

// TestSteadyReduceAllocBreaks is the intentional break: take away what the
// zero rests on and the same measurement must read above zero — without a
// pool every all-reduce payload is a fresh buffer, and a region that
// changes call by call re-portions and re-validates each time.
func TestSteadyReduceAllocBreaks(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	if got := reduceAllocs(t, 2, false); got == 0 {
		t.Error("pooling off allocated nothing per Reduce; the measurement is broken")
	}
	inner := grid.MustRegion(grid.NewRange(3, 62), grid.NewRange(3, 62))
	outer := grid.MustRegion(grid.NewRange(2, 63), grid.NewRange(2, 63))
	if got := reduceAllocs(t, 1, true, inner, outer); got == 0 {
		t.Error("alternating regions allocated nothing per Reduce; the portion memo is not what the zero measures")
	}
}

// TestReduceFoldIsAccounted: the local fold is traced compute with a point
// count and a share of the busy counter, so one traced Tomcatv iteration
// plus its reduce leaves little of the ranks' wall-clock unexplained. Before
// the fold was recorded (and while it walked closures) a third of it was
// dark: busy + wait + comm came to about 0.69 of ranks × wall.
func TestReduceFoldIsAccounted(t *testing.T) {
	const n, procs, iters = 256, 2, 8
	node := residOperand()
	// The accounting is exact per event; only the share depends on how the
	// host schedules two ranks, so any one of a few attempts may show it.
	best := 0.0
	for attempt := 0; attempt < 4 && best < 0.90; attempt++ {
		tom, err := workload.NewTomcatv(n, field.RowMajor)
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.New(procs, 1<<14)
		reg := metrics.New(procs)
		blocks := tom.Blocks()
		sess, err := NewSession(tom.Env, blocks, SessionConfig{Procs: procs, Domain: tom.All, Block: 32,
			Pool: bufpool.New(procs), Trace: tr, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		err = sess.Run(func(r *Rank) error {
			for it := 0; it < iters; it++ {
				for _, b := range blocks {
					if err := r.Exec(b); err != nil {
						return err
					}
				}
				if _, err := r.Reduce(scan.MaxReduce, tom.Interior, node); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.Validate(tr.Events()); err != nil {
			t.Fatalf("schedule validator rejects the trace with fold events: %v", err)
		}
		// On every rank, the compute event that ends last before each
		// reduce event is that reduction's local fold, sized to the rank's
		// portion of the interior.
		folds := 0
		for rank := 0; rank < procs; rank++ {
			var last *trace.Event
			for _, ev := range tr.RankEvents(rank) {
				ev := ev
				switch ev.Kind {
				case trace.KindCompute:
					last = &ev
				case trace.KindReduce:
					if last == nil || last.Elems != tom.Interior.Size()/procs || last.Tile >= 0 || last.End > ev.Start {
						t.Fatalf("rank %d: reduce at %d is not preceded by a portion-sized fold event: %+v", rank, ev.Start, last)
					}
					folds++
					last = nil
				}
			}
		}
		if folds != iters*procs {
			t.Fatalf("%d fold events, want %d", folds, iters*procs)
		}
		sum := sess.Stats().Summary
		var busy, wait, comm float64
		for _, rs := range sum.Ranks {
			busy, wait, comm = busy+float64(rs.Busy), wait+float64(rs.Wait), comm+float64(rs.Comm)
		}
		whole := float64(sum.Wall) * procs
		if share := (busy + wait + comm) / whole; share > best {
			best = share
		}
		// The metrics side: busy_ns now includes the folds, so it cannot be
		// less than the traced compute time by more than clock skew, and the
		// fold must not have been fed to the tile-cost fit as tiles.
		snap := reg.Snapshot()
		if got := snap.Counters[metrics.PipeBusyNs].Total; float64(got) < 0.9*busy {
			t.Errorf("pipeline busy_ns %d is under 90%% of traced busy %0.f: the fold is missing from the counter", got, busy)
		}
		var blockPts int64
		for _, ev := range tr.Events() {
			if ev.Kind == trace.KindCompute {
				blockPts += int64(ev.Elems)
			}
		}
		blockPts -= int64(folds * (tom.Interior.Size() / procs))
		if pts := snap.Counters[metrics.PipePoints].Total; pts != blockPts {
			t.Errorf("pipeline points %d, want the blocks' %d: a fold's points must not enter the tile-cost calibration", pts, blockPts)
		}
	}
	t.Logf("busy + wait + comm cover %.3f of ranks × wall", best)
	if best < 0.90 {
		t.Errorf("busy + wait + comm cover %.2f of ranks × wall in the best of 4 traced runs, want >= 0.90", best)
	}
}

// TestRankReduceRefusals: the structured refusals survive the operand
// cache — first call or warm, same region or new.
func TestRankReduceRefusals(t *testing.T) {
	tom, err := workload.NewTomcatv(64, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	run := func(body func(r *Rank) error) error {
		sess, err := NewSession(tom.Env, tom.Blocks(), SessionConfig{Procs: 2, Domain: tom.All, Block: 8})
		if err != nil {
			t.Fatal(err)
		}
		return sess.Run(body)
	}
	warm := func(r *Rank, node expr.Node) error {
		_, err := r.Reduce(scan.MaxReduce, tom.Interior, node)
		return err
	}
	north := expr.Ref("rx").At(grid.North)

	err = run(func(r *Rank) error {
		if err := warm(r, north); err != nil {
			return err
		}
		_, err := r.Reduce(scan.MaxReduce, tom.All, north) // row 0 is outside rx
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "outside bounds") {
		t.Errorf("warm operand, out-of-bounds region: err = %v, want the bounds error", err)
	}

	var le *scan.LegalityError
	err = run(func(r *Rank) error {
		if err := warm(r, north); err != nil {
			return err
		}
		_, err := r.Reduce(scan.MaxReduce, tom.Interior, north.Prime())
		return err
	})
	if !errors.As(err, &le) || le.Condition != 5 {
		t.Errorf("primed operand beside its warm unprimed twin: err = %v, want legality condition 5", err)
	}

	err = run(func(r *Rank) error {
		_, err := r.Reduce(scan.SumReduce, tom.Interior, expr.Ref("nope"))
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Errorf("unbound array: err = %v, want expr.Validate's unbound error", err)
	}
}

// TestRankReduceScalarRebinds: a reduction's operand may mention a scalar
// the program rebinds between calls (a mean, then a variance about it); the
// cached operand must fold with the current value.
func TestRankReduceScalarRebinds(t *testing.T) {
	tom, err := workload.NewTomcatv(64, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(tom.Env, tom.Blocks(), SessionConfig{Procs: 2, Domain: tom.All, Block: 8})
	if err != nil {
		t.Fatal(err)
	}
	about := expr.Binary{Op: expr.Sub, L: expr.Ref("x"), R: expr.Scalar("mean")}
	var got [2]float64
	err = sess.Run(func(r *Rank) error {
		for i, mean := range []float64{0, 0.5} {
			r.SetScalar("mean", mean)
			v, err := r.Reduce(scan.SumReduce, tom.Interior, about)
			if err != nil {
				return err
			}
			if r.ID() == 0 {
				got[i] = v
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, mean := range []float64{0, 0.5} {
		tom.Env.Scalars["mean"] = mean
		// The parallel sum adds two per-rank partial sums, so compare with
		// a tolerance; a stale capture is off by 0.5 × 62².
		want, err := scan.Reduce(scan.SumReduce, tom.Interior, about, tom.Env)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got[i]-want) > 1e-9*math.Abs(want)+1e-9 {
			t.Errorf("mean = %g: parallel sum %g, serial %g", mean, got[i], want)
		}
	}
}

// TestReduceManyOperandsStaysBounded: a body that reduces over more
// distinct operands than the cache holds still answers correctly and
// returns every leased register.
func TestReduceManyOperandsStaysBounded(t *testing.T) {
	tom, err := workload.NewTomcatv(64, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	pool := bufpool.NewWithConfig(1, bufpool.Config{Track: true})
	sess, err := NewSession(tom.Env, tom.Blocks(), SessionConfig{Procs: 1, Domain: tom.All, Block: 8, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Run(func(r *Rank) error {
		for pass := 0; pass < 2; pass++ {
			for k := 0; k < 3*maxReducers; k++ {
				node := expr.Binary{Op: expr.Mul, L: expr.Ref("x"), R: expr.Const(float64(k))}
				got, err := r.Reduce(scan.MaxReduce, tom.Interior, node)
				if err != nil {
					return err
				}
				want, err := scan.Reduce(scan.MaxReduce, tom.Interior, node, tom.Env)
				if err != nil {
					return err
				}
				if got != want {
					t.Errorf("operand %d: %g, want %g", k, got, want)
				}
			}
			if len(r.reducers) > maxReducers {
				t.Errorf("%d cached operands, bound is %d", len(r.reducers), maxReducers)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out := pool.Outstanding(); out != 0 {
		t.Errorf("%d buffers still leased after the run", out)
	}
}

// TestReduceConcurrentRanks runs whole Tomcatv iterations with a residual
// reduce each, two ranks folding at once — under the static schedule and
// with every rank's tiles on a two-worker task DAG — against the serial
// program: arrays and residual history bit-identical. Under -race it is the
// leg that would catch a fold sharing registers or offset tables across
// ranks or workers.
func TestReduceConcurrentRanks(t *testing.T) {
	const n, iters, procs = 72, 4, 2
	ref, err := workload.NewTomcatv(n, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	var refResid []float64
	for i := 0; i < iters; i++ {
		if _, err := ref.Step(); err != nil {
			t.Fatal(err)
		}
		refResid = append(refResid, ref.ResidualMax())
	}
	node := residOperand()
	for _, c := range []struct {
		name    string
		sched   scan.Scheduler
		workers int
	}{
		{"static", scan.SchedStatic, 0},
		{"taskdag-w2", scan.SchedTaskDAG, 2},
	} {
		par, _ := workload.NewTomcatv(n, field.RowMajor)
		blocks := par.Blocks()
		sess, err := NewSession(par.Env, blocks, SessionConfig{Procs: procs, Domain: par.All, Block: 8,
			Pool: bufpool.New(procs), Scheduler: c.sched, Workers: c.workers})
		if err != nil {
			t.Fatal(err)
		}
		resid := make([][]float64, procs)
		err = sess.Run(func(r *Rank) error {
			for i := 0; i < iters; i++ {
				for _, b := range blocks {
					if err := r.Exec(b); err != nil {
						return err
					}
				}
				v, err := r.Reduce(scan.MaxReduce, par.Interior, node)
				if err != nil {
					return err
				}
				resid[r.ID()] = append(resid[r.ID()], v)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, name := range workload.TomcatvArrays {
			if d := par.Env.Arrays[name].MaxAbsDiff(par.All, ref.Env.Arrays[name]); d != 0 {
				t.Errorf("%s: %s differs from serial by %g", c.name, name, d)
			}
		}
		for rk := range resid {
			for i, want := range refResid {
				if math.Float64bits(resid[rk][i]) != math.Float64bits(want) {
					t.Errorf("%s: rank %d iteration %d: residual %x, serial %x", c.name, rk, i,
						math.Float64bits(resid[rk][i]), math.Float64bits(want))
				}
			}
		}
	}
}
