package scan_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/exprgen"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/scan"
	"wavefront/internal/workload"
)

// program is one workload instance: its blocks in execution order over its
// environment. Two instances built alike start bit-identical.
type program struct {
	env    *expr.MapEnv
	blocks []*scan.Block
}

// families builds one small instance of each workload family.
var families = map[string]func() (program, error){
	"tomcatv": func() (program, error) {
		w, err := workload.NewTomcatv(12, field.RowMajor)
		if err != nil {
			return program{}, err
		}
		return program{w.Env, w.Blocks()}, nil
	},
	"simple": func() (program, error) {
		w, err := workload.NewSimple(12, field.RowMajor)
		if err != nil {
			return program{}, err
		}
		return program{w.Env, w.Blocks()}, nil
	},
	"sweep3d": func() (program, error) {
		w, err := workload.NewSweep(6, 3, field.RowMajor)
		if err != nil {
			return program{}, err
		}
		var blocks []*scan.Block
		for _, dirs := range w.Octants() {
			blocks = append(blocks, w.OctantBlock(dirs))
		}
		return program{w.Env, blocks}, nil
	},
	"sw": func() (program, error) {
		w, err := workload.NewSW(12, 3, field.RowMajor)
		if err != nil {
			return program{}, err
		}
		return program{w.Env, w.Blocks()}, nil
	},
	"lu": func() (program, error) {
		w, err := workload.NewLU(6, 3, field.ColMajor)
		if err != nil {
			return program{}, err
		}
		return program{w.Env, w.Blocks()}, nil
	},
	"cholesky": func() (program, error) {
		w, err := workload.NewCholesky(6, 3, field.RowMajor)
		if err != nil {
			return program{}, err
		}
		return program{w.Env, w.Blocks()}, nil
	},
	"multioctant": func() (program, error) {
		w, err := workload.NewMultiOctant(10, 4, field.RowMajor)
		if err != nil {
			return program{}, err
		}
		return program{w.Env, w.Blocks()}, nil
	},
}

// schedLegs are the schedules a Prepared is held to the oracle under.
var schedLegs = []struct {
	name string
	opt  scan.ExecOptions
}{
	{"static", scan.ExecOptions{}},
	{"taskdag-w2", scan.ExecOptions{Scheduler: scan.SchedTaskDAG, Workers: 2}},
}

// over is b with another covering region.
func over(b *scan.Block, region grid.Region) *scan.Block {
	return &scan.Block{Kind: b.Kind, Region: region, Stmts: b.Stmts}
}

// shrunk drops the last index of every dimension that has more than one.
func shrunk(r grid.Region) grid.Region {
	dims := r.Dims()
	for d := range dims {
		if dims[d].Size() > 1 {
			dims[d].Hi -= dims[d].Stride
		}
	}
	return grid.MustRegion(dims...)
}

// farAway translates r well outside any test array.
func farAway(r grid.Region) grid.Region {
	dims := r.Dims()
	dims[0] = dims[0].Shift(1000)
	return grid.MustRegion(dims...)
}

// sameArrays demands bit-identical storage, NaN payloads included.
func sameArrays(t *testing.T, what string, got, want *expr.MapEnv) {
	t.Helper()
	for name, w := range want.Arrays {
		g := got.Arrays[name].Data()
		for i, x := range w.Data() {
			if math.Float64bits(g[i]) != math.Float64bits(x) {
				t.Fatalf("%s: array %q element %d: prepared %v (%#x) != fresh closure Exec %v (%#x)",
					what, name, i, g[i], math.Float64bits(g[i]), x, math.Float64bits(x))
			}
		}
	}
}

// checkPrepared holds one prepared block to the contract: prepared once
// against got, run over its region, a shrunk region and the first region
// again, it leaves got bit-identical to want, where each of the three is a
// fresh Exec on the closure engine; an out-of-bounds region in between is
// refused in Exec's words and does not disturb the handle.
func checkPrepared(t *testing.T, what string, b *scan.Block, got, want *expr.MapEnv, opt scan.ExecOptions) {
	t.Helper()
	p, err := scan.Prepare(b, got, opt)
	if err != nil {
		t.Fatalf("%s: Prepare: %v", what, err)
	}
	defer p.Close()
	oracle := scan.ExecOptions{Engine: scan.EngineClosure}
	for i, region := range []grid.Region{b.Region, shrunk(b.Region), b.Region} {
		if i == 2 && !b.Region.Empty() { // an empty region reads nothing, anywhere
			bad := farAway(b.Region)
			wantErr := scan.Exec(over(b, bad), want, oracle)
			if err := p.Run(bad); err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%s: out-of-bounds region %v: Run said %v, Exec says %v", what, bad, err, wantErr)
			}
		}
		if err := p.Run(region); err != nil {
			t.Fatalf("%s: Run %d over %v: %v", what, i, region, err)
		}
		if err := scan.Exec(over(b, region), want, oracle); err != nil {
			t.Fatalf("%s: oracle Exec over %v: %v", what, region, err)
		}
		sameArrays(t, fmt.Sprintf("%s, run %d over %v", what, i, region), got, want)
	}
}

// TestPreparedMatchesExec: for every block of every workload family and
// for generated statement lists, one Prepare and three Runs equal three
// fresh closure-engine Execs, under the static schedule and on the task DAG
// with two workers.
func TestPreparedMatchesExec(t *testing.T) {
	for _, leg := range schedLegs {
		for name, build := range families {
			t.Run(leg.name+"/"+name, func(t *testing.T) {
				got, err := build()
				if err != nil {
					t.Fatal(err)
				}
				want, err := build()
				if err != nil {
					t.Fatal(err)
				}
				for i, b := range got.blocks {
					checkPrepared(t, fmt.Sprintf("block %d", i), b, got.env, want.env, leg.opt)
				}
			})
		}
		t.Run(leg.name+"/generated", func(t *testing.T) {
			rng := rand.New(rand.NewSource(21))
			scans := 0
			for iter := 0; iter < 120; iter++ {
				rank := 1 + rng.Intn(3)
				dims := make([]grid.Range, rank)
				bdims := make([]grid.Range, rank)
				for d := range dims {
					n := 2 + rng.Intn(6)
					if d == rank-1 {
						n = 4 + rng.Intn(30)
					}
					dims[d] = grid.Range{Lo: 1, Hi: n, Stride: 1}
					bdims[d] = grid.NewRange(0, n+1)
				}
				if iter%5 == 0 {
					dims[rng.Intn(rank)].Stride = 2
				}
				if iter%41 == 0 {
					dims[rng.Intn(rank)] = grid.Range{Lo: 3, Hi: 2, Stride: 1} // empty
				}
				layouts := []field.Layout{field.RowMajor, field.ColMajor, field.RowMajor, field.ColMajor}
				if iter%2 == 0 {
					layouts = []field.Layout{field.RowMajor, field.RowMajor, field.RowMajor, field.RowMajor}
				}
				bounds, region := grid.MustRegion(bdims...), grid.MustRegion(dims...)
				var stmts []scan.Stmt
				for n := 1 + rng.Intn(4); n > 0; n-- {
					lhs := exprgen.Names[rng.Intn(len(exprgen.Names))]
					stmts = append(stmts, scan.Stmt{LHS: expr.Ref(lhs), RHS: exprgen.StmtRHS(rng, rank, lhs)})
				}
				// As a plain block every list is legal (a statement whose
				// anti-dependences over-constrain goes through a temporary);
				// fused into a scan block only those one loop nest satisfies.
				blocks := []*scan.Block{scan.NewPlain(region, stmts...)}
				if fused := scan.NewScan(region, stmts...); analyzes(fused) {
					blocks = append(blocks, fused)
					scans++
				}
				for _, b := range blocks {
					got, want := exprgen.Env(bounds, layouts, int64(iter)), exprgen.Env(bounds, layouts, int64(iter))
					checkPrepared(t, fmt.Sprintf("iter %d %v block %v", iter, b.Kind, stmts), b, got, want, leg.opt)
				}
			}
			if scans < 20 {
				t.Errorf("only %d of 120 generated lists fused into a legal scan block", scans)
			}
		})
	}
}

func analyzes(b *scan.Block) bool {
	_, err := scan.Analyze(b, dep.Preference{})
	return err == nil
}

// TestPreparedWarmRunZeroAllocs: under the static schedule with no observer
// a warm Run of the 7 x 8 forward wavefront allocates nothing (a fresh Exec
// of it is some 200 allocations), and neither does a held Reducer folding
// 256 points again.
func TestPreparedWarmRunZeroAllocs(t *testing.T) {
	w, err := workload.NewTomcatv(10, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	fwd := w.ForwardBlock()
	if fwd.Region.Size() != 7*8 {
		t.Fatalf("forward block covers %v, want 7 x 8", fwd.Region)
	}
	p, err := scan.Prepare(fwd, w.Env, scan.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if err := p.Run(fwd.Region); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if a := testing.AllocsPerRun(50, run); a != 0 {
		t.Errorf("warm Prepared.Run allocated %.0f times, want 0", a)
	}

	h, err := workload.NewTomcatv(18, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	if h.Interior.Size() != 256 {
		t.Fatalf("interior is %d points, want 256", h.Interior.Size())
	}
	abs := func(name string) expr.Node { return expr.Call{Fn: expr.Abs, Args: []expr.Node{expr.Ref(name)}} }
	rd := scan.NewReducer(expr.Call{Fn: expr.Max, Args: []expr.Node{abs("rx"), abs("ry")}}, h.Env)
	fold := func() {
		if _, err := rd.Reduce(scan.MaxReduce, h.Interior); err != nil {
			t.Fatal(err)
		}
	}
	fold() // the first fold of 256 points is the closure's; the second lowers
	fold()
	if a := testing.AllocsPerRun(50, fold); a != 0 {
		t.Errorf("warm Reducer.Reduce over 256 points allocated %.0f times, want 0", a)
	}
}
