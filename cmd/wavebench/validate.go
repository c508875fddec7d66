package main

import (
	"fmt"
	"math"
	"strings"

	"wavefront"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/metrics"
	"wavefront/internal/scan"
	"wavefront/internal/workload"
)

// parseEngine maps the -kernel flag to an engine selector.
func parseEngine(s string) (wavefront.KernelEngine, error) {
	switch s {
	case "tape":
		return wavefront.KernelTape, nil
	case "closure":
		return wavefront.KernelClosure, nil
	case "scalar":
		return wavefront.KernelScalar, nil
	}
	return 0, fmt.Errorf("wavebench: unknown -kernel %q (want tape, closure, or scalar)", s)
}

// valLeg is one pipelined cell of the validation matrix: a kernel engine
// crossed with a tile scheduler (and, for the task DAG, a pool size).
type valLeg struct {
	name    string
	engine  wavefront.KernelEngine
	sched   wavefront.Scheduler
	workers int
}

// valLegs is the full scheduler×engine validation matrix: all three engines
// under the static schedule, plus the task-DAG scheduler at 1, 2, 3, 4, and 8
// workers (1 worker pins the degenerate pool; the wider pools move tiles
// between workers, with 8 oversubscribing most portions; 3 cuts a dependence-free
// span dimension into ragged chunks). The scalar leg pins the
// forced per-point tape — the baseline the span and skewed paths must stay
// bit-identical to.
func valLegs() []valLeg {
	return []valLeg{
		{"tape", wavefront.KernelTape, wavefront.SchedStatic, 0},
		{"closure", wavefront.KernelClosure, wavefront.SchedStatic, 0},
		{"scalar", wavefront.KernelScalar, wavefront.SchedStatic, 0},
		{"taskdag-w1", wavefront.KernelTape, wavefront.SchedTaskDAG, 1},
		{"taskdag-w2", wavefront.KernelTape, wavefront.SchedTaskDAG, 2},
		{"taskdag-w3", wavefront.KernelTape, wavefront.SchedTaskDAG, 3},
		{"taskdag-w4", wavefront.KernelTape, wavefront.SchedTaskDAG, 4},
		{"taskdag-w8", wavefront.KernelTape, wavefront.SchedTaskDAG, 8},
	}
}

// runValidate pins the bit-identity contract on the paper's three
// workloads: the closure path run serially is the reference, and every
// (engine, scheduler) cell — serial tape plus the pipelined matrix at
// p = 1, 2, 4 — must reproduce every array bit for bit. Any disagreement
// is a check failure (exit 1).
func runValidate(n, block int) error {
	procs := []int{1, 2, 4}
	mismatches := 0
	var paths serialPaths
	report := func(wl, leg, name string, diff float64) {
		mismatches++
		fmt.Printf("MISMATCH %-8s %-16s %-8s max|diff|=%g\n", wl, leg, name, diff)
	}

	// Tomcatv: the full five-block step, iterated, with the reduce legs
	// (residual max, its min and sum twins) folded after every iteration.
	{
		iters := 3
		ref, err := workload.NewTomcatv(n, field.RowMajor)
		if err != nil {
			return err
		}
		refFolds, err := tomcatvSerial(ref, iters, scan.ExecOptions{Engine: scan.EngineClosure})
		if err != nil {
			return err
		}
		tape, err := workload.NewTomcatv(n, field.RowMajor)
		if err != nil {
			return err
		}
		tapeFolds, err := tomcatvSerial(tape, iters, scan.ExecOptions{Engine: scan.EngineTape, Metrics: paths.reg("tomcatv")})
		if err != nil {
			return err
		}
		compareArrays("tomcatv", "serial tape", ref.All, ref.Env.Arrays, tape.Env.Arrays, report)
		compareFolds("tomcatv", "serial tape", 1, refFolds, tapeFolds, report)
		for _, p := range procs {
			for _, leg := range valLegs() {
				w, _ := workload.NewTomcatv(n, field.RowMajor)
				blocks := w.Blocks()
				sess, err := wavefront.NewSession(w.Env, blocks, wavefront.SessionConfig{
					Procs: p, Domain: w.All, Block: block, Kernel: leg.engine,
					Scheduler: leg.sched, Workers: leg.workers})
				if err != nil {
					return err
				}
				var folds []float64
				err = sess.Run(func(r *wavefront.Rank) error {
					for i := 0; i < iters; i++ {
						for _, b := range blocks {
							if err := r.Exec(b); err != nil {
								return err
							}
						}
						for _, f := range reduceLegs {
							v, err := r.Reduce(f.op, w.Interior, f.node)
							if err != nil {
								return err
							}
							if r.ID() == 0 {
								folds = append(folds, v)
							}
						}
					}
					return nil
				})
				if err != nil {
					return err
				}
				legName := fmt.Sprintf("p=%d %s", p, leg.name)
				compareArrays("tomcatv", legName, ref.All, ref.Env.Arrays, w.Env.Arrays, report)
				compareFolds("tomcatv", legName, p, refFolds, folds, report)
			}
		}
	}

	// SIMPLE: hydro + conduction step, iterated.
	{
		sn, steps := 32, 3
		ref, err := workload.NewSimple(sn, field.RowMajor)
		if err != nil {
			return err
		}
		if err := simpleSerial(ref, steps, scan.ExecOptions{Engine: scan.EngineClosure}); err != nil {
			return err
		}
		tape, err := workload.NewSimple(sn, field.RowMajor)
		if err != nil {
			return err
		}
		if err := simpleSerial(tape, steps, scan.ExecOptions{Engine: scan.EngineTape, Metrics: paths.reg("simple")}); err != nil {
			return err
		}
		compareArrays("simple", "serial tape", ref.All, ref.Env.Arrays, tape.Env.Arrays, report)
		for _, p := range procs {
			for _, leg := range valLegs() {
				w, _ := workload.NewSimple(sn, field.RowMajor)
				blocks := w.Blocks()
				sess, err := wavefront.NewSession(w.Env, blocks, wavefront.SessionConfig{
					Procs: p, Domain: w.All, Block: 5, Kernel: leg.engine,
					Scheduler: leg.sched, Workers: leg.workers})
				if err != nil {
					return err
				}
				err = sess.Run(func(r *wavefront.Rank) error {
					for i := 0; i < steps; i++ {
						for _, b := range blocks {
							if err := r.Exec(b); err != nil {
								return err
							}
						}
					}
					return nil
				})
				if err != nil {
					return err
				}
				compareArrays("simple", fmt.Sprintf("p=%d %s", p, leg.name), ref.All, ref.Env.Arrays, w.Env.Arrays, report)
			}
		}
	}

	// Sweep3D: all eight octants once, rank 3.
	{
		sn := 10
		ref, err := workload.NewSweep(sn, 3, field.RowMajor)
		if err != nil {
			return err
		}
		if err := sweepSerial(ref, scan.ExecOptions{Engine: scan.EngineClosure}); err != nil {
			return err
		}
		tape, err := workload.NewSweep(sn, 3, field.RowMajor)
		if err != nil {
			return err
		}
		if err := sweepSerial(tape, scan.ExecOptions{Engine: scan.EngineTape, Metrics: paths.reg("sweep3d")}); err != nil {
			return err
		}
		compareArrays("sweep3d", "serial tape", ref.Inner, ref.Env.Arrays, tape.Env.Arrays, report)
		for _, p := range procs {
			for _, leg := range valLegs() {
				w, _ := workload.NewSweep(sn, 3, field.RowMajor)
				var blocks []*wavefront.Block
				for _, dirs := range w.Octants() {
					blocks = append(blocks, w.OctantBlock(dirs))
				}
				sess, err := wavefront.NewSession(w.Env, blocks, wavefront.SessionConfig{
					Procs: p, Domain: w.Inner, Block: 3, Kernel: leg.engine,
					Scheduler: leg.sched, Workers: leg.workers})
				if err != nil {
					return err
				}
				err = sess.Run(func(r *wavefront.Rank) error {
					for _, b := range blocks {
						if err := r.Exec(b); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return err
				}
				compareArrays("sweep3d", fmt.Sprintf("p=%d %s", p, leg.name), ref.Inner, ref.Env.Arrays, w.Env.Arrays, report)
			}
		}
	}

	// Smith-Waterman: the affine-gap DP fill against its straight-Go oracle,
	// plus the data-dependent traceback — the walk must reproduce the
	// oracle's alignment exactly over every engine/scheduler cell.
	{
		sn := 24
		ref, err := workload.NewSW(sn, 7, field.RowMajor)
		if err != nil {
			return err
		}
		oracle := ref.Reference()
		refEnd, refOps := ref.TracebackOf(oracle)
		checkTraceback := func(leg string, w *workload.SW) {
			end, ops := w.Traceback()
			if end[0] != refEnd[0] || end[1] != refEnd[1] || string(ops) != string(refOps) {
				report("sw", leg, "traceback", -1)
			}
		}
		if err := serialEngines(paths.reg("sw"), func(leg string, opt scan.ExecOptions) error {
			w, err := workload.NewSW(sn, 7, field.RowMajor)
			if err != nil {
				return err
			}
			if err := scan.Exec(w.Block(), w.Env, opt); err != nil {
				return err
			}
			compareArrays("sw", leg, w.All, oracle, w.Env.Arrays, report)
			checkTraceback(leg, w)
			return nil
		}); err != nil {
			return err
		}
		for _, p := range procs {
			for _, leg := range valLegs() {
				w, _ := workload.NewSW(sn, 7, field.RowMajor)
				blk := w.Block()
				sess, err := wavefront.NewSession(w.Env, []*wavefront.Block{blk}, wavefront.SessionConfig{
					Procs: p, Domain: w.All, Block: 6, Kernel: leg.engine,
					Scheduler: leg.sched, Workers: leg.workers})
				if err != nil {
					return err
				}
				if err := sess.Run(func(r *wavefront.Rank) error { return r.Exec(blk) }); err != nil {
					return err
				}
				legName := fmt.Sprintf("p=%d %s", p, leg.name)
				compareArrays("sw", legName, w.All, oracle, w.Env.Arrays, report)
				checkTraceback(legName, w)
			}
		}
	}

	// Blocked factorization: LU and Cholesky, whose per-step regions shrink
	// (the empty-portion path idles low ranks mid-program) and whose tile
	// cost varies by position.
	for _, chol := range []bool{false, true} {
		name, mk := "lu", workload.NewLU
		if chol {
			name, mk = "cholesky", workload.NewCholesky
		}
		fn := 16
		ref, err := mk(fn, 3, field.RowMajor)
		if err != nil {
			return err
		}
		oracle := map[string]*field.Field{"a": ref.Reference()}
		if err := serialEngines(paths.reg(name), func(leg string, opt scan.ExecOptions) error {
			w, err := mk(fn, 3, field.RowMajor)
			if err != nil {
				return err
			}
			if err := w.Run(opt); err != nil {
				return err
			}
			compareFactor(name, leg, w, oracle, report)
			return nil
		}); err != nil {
			return err
		}
		for _, p := range procs {
			for _, leg := range valLegs() {
				w, _ := mk(fn, 3, field.RowMajor)
				blocks := w.Blocks()
				sess, err := wavefront.NewSession(w.Env, blocks, wavefront.SessionConfig{
					Procs: p, Domain: w.All, Block: 4, Kernel: leg.engine,
					Scheduler: leg.sched, Workers: leg.workers})
				if err != nil {
					return err
				}
				err = sess.Run(func(r *wavefront.Rank) error {
					for _, b := range blocks {
						if err := r.Exec(b); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return err
				}
				compareFactor(name, fmt.Sprintf("p=%d %s", p, leg.name), w, oracle, report)
			}
		}
	}

	// Multi-octant transport: two counter-propagating octants executed as
	// one scheduling group in the session legs (an independence check,
	// then the blocks back to back, their waves overlapping across ranks),
	// then the combine pass.
	{
		mn, k := 20, 2
		ref, err := workload.NewMultiOctant(mn, k, field.RowMajor)
		if err != nil {
			return err
		}
		oracle := ref.Reference()
		if err := serialEngines(paths.reg("multioct"), func(leg string, opt scan.ExecOptions) error {
			w, err := workload.NewMultiOctant(mn, k, field.RowMajor)
			if err != nil {
				return err
			}
			if err := w.RunSequential(opt); err != nil {
				return err
			}
			compareArrays("multioct", leg, w.Inner, oracle, w.Env.Arrays, report)
			return nil
		}); err != nil {
			return err
		}
		for _, p := range procs {
			for _, leg := range valLegs() {
				w, _ := workload.NewMultiOctant(mn, k, field.RowMajor)
				sess, err := wavefront.NewSession(w.Env, w.Blocks(), wavefront.SessionConfig{
					Procs: p, Domain: w.All, Block: 6, Kernel: leg.engine,
					Scheduler: leg.sched, Workers: leg.workers})
				if err != nil {
					return err
				}
				err = sess.Run(func(r *wavefront.Rank) error {
					if err := r.ExecGroup(w.OctantBlocks()); err != nil {
						return err
					}
					return r.Exec(w.CombineBlock())
				})
				if err != nil {
					return err
				}
				compareArrays("multioct", fmt.Sprintf("p=%d %s", p, leg.name), w.Inner, oracle, w.Env.Arrays, report)
			}
		}
	}

	fmt.Println(paths.String())
	if off := paths.offVector(); len(off) > 0 {
		return fmt.Errorf("%w: serial tape left the span and skewed orders (closure or scalar > 0) on %s",
			errCheckFailed, strings.Join(off, ", "))
	}
	if mismatches > 0 {
		return fmt.Errorf("%w: %d disagreement(s) across the engine/scheduler matrix", errCheckFailed, mismatches)
	}
	fmt.Println("validate: every engine/scheduler cell bit-identical on tomcatv, simple, sweep3d, sw, lu, cholesky, multioct (serial and p=1/2/4; static and taskdag w=1/2/3/4/8)")
	return nil
}

// serialEngines runs a family's serial program once per engine — closure,
// scalar, tape, the tape leg publishing its path tally to reg — handing run
// the leg's name and options; run builds, executes and compares.
func serialEngines(reg *metrics.Registry, run func(leg string, opt scan.ExecOptions) error) error {
	for _, eng := range []struct {
		name string
		e    scan.Engine
	}{{"serial closure", scan.EngineClosure}, {"serial scalar", scan.EngineScalar}, {"serial tape", scan.EngineTape}} {
		opt := scan.ExecOptions{Engine: eng.e}
		if eng.e == scan.EngineTape {
			opt.Metrics = reg
		}
		if err := run(eng.name, opt); err != nil {
			return err
		}
	}
	return nil
}

// compareFactor checks the factored matrix against the oracle and its
// reconstruction residual against the numerical floor — the bit-identity
// differential plus an independent accuracy check.
func compareFactor(wl, leg string, w *workload.Factor, oracle map[string]*field.Field, report func(wl, leg, name string, diff float64)) {
	compareArrays(wl, leg, w.All, oracle, w.Env.Arrays, report)
	if r := w.ResidualMax(); r > 1e-9 {
		report(wl, leg, "residual", r)
	}
}

// reduceLegs are the reductions the Tomcatv legs fold after every
// iteration: the program's own convergence test and a min and a sum over
// shifted, multi-array operands, so all three folds and both yield kinds
// (register and memory operand) run under every engine and scheduler.
var reduceLegs = []struct {
	op   scan.ReduceOp
	node wavefront.Expr
}{
	{scan.MaxReduce, wavefront.Max(
		expr.Call{Fn: expr.Abs, Args: []expr.Node{wavefront.Ref("rx")}},
		expr.Call{Fn: expr.Abs, Args: []expr.Node{wavefront.Ref("ry")}})},
	{scan.MinReduce, expr.Binary{Op: expr.Sub, L: wavefront.Ref("x").At(grid.North), R: wavefront.Ref("y")}},
	{scan.SumReduce, expr.Binary{Op: expr.Mul, L: wavefront.Ref("rx"), R: wavefront.Ref("d").At(grid.West)}},
}

// tomcatvSerial runs iters whole iterations under opt and returns every
// iteration's reduce-leg results, folded with opt's engine.
func tomcatvSerial(t *workload.Tomcatv, iters int, opt scan.ExecOptions) (folds []float64, err error) {
	for i := 0; i < iters; i++ {
		for _, b := range t.Blocks() {
			if err := scan.Exec(b, t.Env, opt); err != nil {
				return nil, err
			}
		}
		for _, f := range reduceLegs {
			rd := scan.NewReducer(f.node, t.Env)
			rd.SetEngine(opt.Engine)
			v, err := rd.Reduce(f.op, t.Interior)
			if err != nil {
				return nil, err
			}
			folds = append(folds, v)
		}
	}
	return folds, nil
}

// compareFolds holds a leg's reduce results to the serial closure fold's:
// bit for bit, except that a sum across p > 1 ranks adds per-rank partial
// sums — a different association — and is held to a relative 1e-12.
func compareFolds(wl, leg string, p int, ref, got []float64, report func(wl, leg, name string, diff float64)) {
	if len(got) != len(ref) {
		report(wl, leg, "reduce-count", float64(len(got)-len(ref)))
		return
	}
	for i, want := range ref {
		f := reduceLegs[i%len(reduceLegs)]
		same := math.Float64bits(got[i]) == math.Float64bits(want)
		if f.op == scan.SumReduce && p > 1 {
			same = math.Abs(got[i]-want) <= 1e-12*math.Abs(want)
		}
		if !same {
			report(wl, leg, f.op.String(), math.Abs(got[i]-want))
		}
	}
}

func simpleSerial(s *workload.Simple, steps int, opt scan.ExecOptions) error {
	for i := 0; i < steps; i++ {
		for _, b := range s.Blocks() {
			if err := scan.Exec(b, s.Env, opt); err != nil {
				return err
			}
		}
	}
	return nil
}

func sweepSerial(s *workload.Sweep, opt scan.ExecOptions) error {
	for _, dirs := range s.Octants() {
		if err := scan.Exec(s.OctantBlock(dirs), s.Env, opt); err != nil {
			return err
		}
	}
	return nil
}

func compareArrays(wl, leg string, region grid.Region, ref, got map[string]*field.Field, report func(wl, leg, name string, diff float64)) {
	for name, rf := range ref {
		gf, ok := got[name]
		if !ok {
			report(wl, leg, name, -1)
			continue
		}
		if d := gf.MaxAbsDiff(region, rf); d != 0 {
			report(wl, leg, name, d)
		}
	}
}

// serialPaths collects one single-rank metrics registry per workload for the
// serial tape legs, so the validate output can say which executor path —
// span, skewed, scalar, closure — each workload's tape actually took, and
// fail when one fell back to the point walk or the closures instead of
// hiding that as an unexplained slowdown.
type serialPaths struct {
	names []string
	regs  []*metrics.Registry
}

// reg returns a fresh registry attributed to workload wl.
func (sp *serialPaths) reg(wl string) *metrics.Registry {
	r := metrics.New(1)
	sp.names = append(sp.names, wl)
	sp.regs = append(sp.regs, r)
	return r
}

// String renders the one-line summary printed at the end of -validate.
func (sp *serialPaths) String() string {
	var b strings.Builder
	b.WriteString("kernel paths (serial tape):")
	for i, name := range sp.names {
		fmt.Fprintf(&b, " %s[%s]", name, pathLine(sp.regs[i]))
	}
	return b.String()
}

// offVector names the workloads whose serial tape leg tallied a statement on
// the scalar or closure path.
func (sp *serialPaths) offVector() []string {
	var off []string
	for i, name := range sp.names {
		c := sp.regs[i].Snapshot().Counters
		if c[metrics.KernelPathScalar].Total > 0 || c[metrics.KernelPathClosure].Total > 0 {
			off = append(off, name)
		}
	}
	return off
}

// pathLine formats the kernel-path counters of one registry.
func pathLine(r *metrics.Registry) string {
	s := r.Snapshot()
	get := func(name string) int64 { return s.Counters[name].Total }
	return fmt.Sprintf("span=%d skewed=%d scalar=%d closure=%d",
		get(metrics.KernelPathSpan), get(metrics.KernelPathSkewed),
		get(metrics.KernelPathScalar), get(metrics.KernelPathClosure))
}
