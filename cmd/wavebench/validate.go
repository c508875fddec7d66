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

// valLeg is one pipelined cell of the validation matrix: a tile scheduler
// and, for the task DAG, a pool size. Every rank runs the tape; the closure
// and point-walk engines are serial legs (serialEngines).
type valLeg struct {
	name    string
	sched   wavefront.Scheduler
	workers int
}

// valLegs is the pipelined half of the validation matrix: the static
// schedule, plus the task-DAG scheduler at 1, 2, 3, 4, and 8 workers (1
// worker pins the degenerate pool; the wider pools move tiles between
// workers, with 8 oversubscribing most portions; 3 cuts a dependence-free
// span dimension into ragged chunks).
func valLegs() []valLeg {
	return []valLeg{
		{"static", wavefront.SchedStatic, 0},
		{"taskdag-w1", wavefront.SchedTaskDAG, 1},
		{"taskdag-w2", wavefront.SchedTaskDAG, 2},
		{"taskdag-w3", wavefront.SchedTaskDAG, 3},
		{"taskdag-w4", wavefront.SchedTaskDAG, 4},
		{"taskdag-w8", wavefront.SchedTaskDAG, 8},
	}
}

// reportFn records one disagreement with a family's reference.
type reportFn func(wl, leg, name string, diff float64)

// valFamily is one workload family of the validation matrix: its name in
// the report, the tile width its sessions pipeline with, and the
// constructor of a fresh instance.
type valFamily struct {
	name  string
	block int
	make  func() (*valInst, error)
}

// valInst is a fresh instance of a family: what a session registers, the
// family's program as a serial run under one engine and as a rank body, and
// the comparison of the instance's state afterwards with the reference —
// the family's handwritten oracle where it has one, otherwise ref, the
// instance runValidate ran serially on the closure engine.
type valInst struct {
	env    *wavefront.Env
	domain grid.Region
	blocks []*wavefront.Block
	serial func(opt scan.ExecOptions) error
	body   func(r *wavefront.Rank) error
	check  func(ref *valInst, leg string, p int)
	// folds are the reductions the program made, in order (Tomcatv).
	folds []float64
}

// runValidate pins the bit-identity contract on every workload family:
// all three engines run serially, and the tape pipelined under every
// scheduler leg at p = 1, 2, 4, must reproduce the family's reference,
// every array bit for bit. Any disagreement is a check failure (exit 1).
func runValidate(n, block int) error {
	mismatches := 0
	report := func(wl, leg, name string, diff float64) {
		mismatches++
		fmt.Printf("MISMATCH %-8s %-16s %-8s max|diff|=%g\n", wl, leg, name, diff)
	}
	var paths serialPaths
	for _, fam := range valFamilies(n, block, report) {
		ref, err := fam.make()
		if err == nil {
			err = ref.serial(scan.ExecOptions{Engine: scan.EngineClosure})
		}
		if err != nil {
			return err
		}
		err = serialEngines(paths.reg(fam.name), func(leg string, opt scan.ExecOptions) error {
			w, err := fam.make()
			if err == nil {
				err = w.serial(opt)
			}
			if err == nil {
				w.check(ref, leg, 1)
			}
			return err
		})
		if err != nil {
			return err
		}
		for _, p := range []int{1, 2, 4} {
			for _, leg := range valLegs() {
				w, err := fam.make()
				if err != nil {
					return err
				}
				sess, err := wavefront.NewSession(w.env, w.blocks, wavefront.SessionConfig{
					Procs: p, Domain: w.domain, Block: fam.block,
					Scheduler: leg.sched, Workers: leg.workers})
				if err != nil {
					return err
				}
				err = sess.Run(w.body)
				sess.Close()
				if err != nil {
					return err
				}
				w.check(ref, fmt.Sprintf("p=%d %s", p, leg.name), p)
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
	fmt.Println("validate: every engine/scheduler cell bit-identical on tomcatv, simple, sweep3d, sw, lu, cholesky, multioct (serial closure/scalar/tape; tape at p=1/2/4, static and taskdag w=1/2/3/4/8)")
	return nil
}

// blockProgram is the program of a family that is its block list run steps
// times over: serially under an engine, and as a rank body.
func (v *valInst) blockProgram(steps int) {
	run := func(exec func(*wavefront.Block) error) error {
		for i := 0; i < steps; i++ {
			for _, b := range v.blocks {
				if err := exec(b); err != nil {
					return err
				}
			}
		}
		return nil
	}
	v.serial = func(opt scan.ExecOptions) error {
		return run(func(b *wavefront.Block) error { return scan.Exec(b, v.env, opt) })
	}
	v.body = func(r *wavefront.Rank) error { return run(r.Exec) }
}

// valFamilies is the validation matrix's table of workload families; n and
// block size Tomcatv, the rest are fixed.
func valFamilies(n, block int, report reportFn) []valFamily {
	factor := func(name string, mk func(int, int64, field.Layout) (*workload.Factor, error)) valFamily {
		// Blocked factorization, whose per-step regions shrink (the
		// empty-portion path idles low ranks mid-program) and whose tile
		// cost varies by position: the factored matrix against the oracle
		// and its reconstruction residual against the numerical floor.
		return valFamily{name, 4, func() (*valInst, error) {
			w, err := mk(16, 3, field.RowMajor)
			if err != nil {
				return nil, err
			}
			oracle := map[string]*field.Field{"a": w.Reference()}
			v := &valInst{env: w.Env, domain: w.All, blocks: w.Blocks()}
			v.blockProgram(1)
			v.serial = w.Run // the workload's own serial program: it prepares each statement shape once
			v.check = func(_ *valInst, leg string, _ int) {
				compareArrays(name, leg, w.All, oracle, w.Env.Arrays, report)
				if r := w.ResidualMax(); r > 1e-9 {
					report(name, leg, "residual", r)
				}
			}
			return v, nil
		}}
	}
	return []valFamily{
		// The full five-block step, iterated, with the reduce legs
		// (residual max, its min and sum twins) folded after every
		// iteration.
		{"tomcatv", block, func() (*valInst, error) {
			const iters = 3
			w, err := workload.NewTomcatv(n, field.RowMajor)
			if err != nil {
				return nil, err
			}
			v := &valInst{env: w.Env, domain: w.All, blocks: w.Blocks()}
			v.serial = func(opt scan.ExecOptions) (err error) {
				v.folds, err = tomcatvSerial(w, iters, opt)
				return err
			}
			v.body = func(r *wavefront.Rank) error {
				for i := 0; i < iters; i++ {
					for _, b := range v.blocks {
						if err := r.Exec(b); err != nil {
							return err
						}
					}
					for _, f := range reduceLegs {
						x, err := r.Reduce(f.op, w.Interior, f.node)
						if err != nil {
							return err
						}
						if r.ID() == 0 {
							v.folds = append(v.folds, x)
						}
					}
				}
				return nil
			}
			v.check = func(ref *valInst, leg string, p int) {
				compareArrays("tomcatv", leg, w.All, ref.env.Arrays, w.Env.Arrays, report)
				compareFolds("tomcatv", leg, p, ref.folds, v.folds, report)
			}
			return v, nil
		}},
		// Hydro + conduction step, iterated.
		{"simple", 5, func() (*valInst, error) {
			w, err := workload.NewSimple(32, field.RowMajor)
			if err != nil {
				return nil, err
			}
			v := &valInst{env: w.Env, domain: w.All, blocks: w.Blocks()}
			v.blockProgram(3)
			v.check = func(ref *valInst, leg string, _ int) {
				compareArrays("simple", leg, w.All, ref.env.Arrays, w.Env.Arrays, report)
			}
			return v, nil
		}},
		// All eight octants once, rank 3.
		{"sweep3d", 3, func() (*valInst, error) {
			w, err := workload.NewSweep(10, 3, field.RowMajor)
			if err != nil {
				return nil, err
			}
			v := &valInst{env: w.Env, domain: w.Inner}
			for _, dirs := range w.Octants() {
				v.blocks = append(v.blocks, w.OctantBlock(dirs))
			}
			v.blockProgram(1)
			v.check = func(ref *valInst, leg string, _ int) {
				compareArrays("sweep3d", leg, w.Inner, ref.env.Arrays, w.Env.Arrays, report)
			}
			return v, nil
		}},
		// The affine-gap DP fill against its straight-Go oracle, plus the
		// data-dependent traceback — the walk must reproduce the oracle's
		// alignment exactly.
		{"sw", 6, func() (*valInst, error) {
			w, err := workload.NewSW(24, 7, field.RowMajor)
			if err != nil {
				return nil, err
			}
			oracle := w.Reference()
			v := &valInst{env: w.Env, domain: w.All, blocks: w.Blocks()}
			v.blockProgram(1)
			v.check = func(_ *valInst, leg string, _ int) {
				compareArrays("sw", leg, w.All, oracle, w.Env.Arrays, report)
				wantEnd, wantOps := w.TracebackOf(oracle)
				if end, ops := w.Traceback(); end[0] != wantEnd[0] || end[1] != wantEnd[1] || string(ops) != string(wantOps) {
					report("sw", leg, "traceback", -1)
				}
			}
			return v, nil
		}},
		factor("lu", workload.NewLU),
		factor("cholesky", workload.NewCholesky),
		// Two counter-propagating octants executed as one scheduling group
		// in the session legs (an independence check, then the blocks back
		// to back, their waves overlapping across ranks), then the combine
		// pass.
		{"multioct", 6, func() (*valInst, error) {
			w, err := workload.NewMultiOctant(20, 2, field.RowMajor)
			if err != nil {
				return nil, err
			}
			oracle := w.Reference()
			v := &valInst{env: w.Env, domain: w.All, blocks: w.Blocks(), serial: w.RunSequential}
			v.body = func(r *wavefront.Rank) error {
				if err := r.ExecGroup(w.OctantBlocks()); err != nil {
					return err
				}
				return r.Exec(w.CombineBlock())
			}
			v.check = func(_ *valInst, leg string, _ int) {
				compareArrays("multioct", leg, w.Inner, oracle, w.Env.Arrays, report)
			}
			return v, nil
		}},
	}
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
func compareFolds(wl, leg string, p int, ref, got []float64, report reportFn) {
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

func compareArrays(wl, leg string, region grid.Region, ref, got map[string]*field.Field, report reportFn) {
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
