package scan

import (
	"testing"

	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/metrics"
)

// swBlock is a Smith-Waterman-shaped recurrence: a reads itself at both
// axis-unit distances and the diagonal, so no dimension is spannable and
// the tape must skew.
func swBlock(region grid.Region) *Block {
	at := func(dist ...int) expr.Node { return expr.Ref("a").At(grid.Direction(dist)).Prime() }
	add := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.Add, L: l, R: r} }
	return NewScan(region, Stmt{
		LHS: expr.Ref("a"),
		RHS: add(add(at(-1, 0), at(0, -1)), add(at(-1, -1), expr.Ref("b"))),
	})
}

func skewExecEnv(n int) *expr.MapEnv {
	bounds := grid.Square(2, 0, n)
	env := &expr.MapEnv{
		Arrays: map[string]*field.Field{
			"a": field.MustNew("a", bounds, field.RowMajor),
			"b": field.MustNew("b", bounds, field.RowMajor),
		},
		Scalars: map[string]float64{},
	}
	env.Arrays["a"].FillFunc(bounds, func(p grid.Point) float64 {
		return 0.3 + 0.11*float64(p[0]) + 0.05*float64(p[1])
	})
	env.Arrays["b"].FillFunc(bounds, func(p grid.Point) float64 {
		return 1.7 - 0.07*float64(p[0]) + 0.19*float64(p[1])
	})
	return env
}

// TestSkewedEngineSelection pins the scan layer's engine dispatch and path
// accounting on a skew-requiring recurrence: EngineTape takes the skewed
// path, EngineScalar forces the point walk, EngineClosure the closure
// path — and both tape orders agree bit for bit with the closures, the one
// engine that shares no lowering with them.
func TestSkewedEngineSelection(t *testing.T) {
	const n = 16
	region := grid.MustRegion(grid.NewRange(1, n-1), grid.NewRange(1, n-1))
	run := func(e Engine) (*expr.MapEnv, PathCounts, *metrics.Registry) {
		env := skewExecEnv(n)
		reg := metrics.New(1)
		blk := swBlock(region)
		an, err := Analyze(blk, dep.Preference{})
		if err != nil {
			t.Fatal(err)
		}
		k, err := engineKernel(blk, env, an.UDVs, e)
		if err != nil {
			t.Fatal(err)
		}
		k.SetMetrics(reg, 0)
		k.Run(blk.Region, an.Loop)
		return env, k.PathCounts(), reg
	}
	envT, pcT, regT := run(EngineTape)
	envS, pcS, _ := run(EngineScalar)
	envC, pcC, _ := run(EngineClosure)

	if pcT.Skewed == 0 || pcT.Total() != pcT.Skewed {
		t.Errorf("tape path counts %v, want all skewed", pcT)
	}
	if pcS.Scalar == 0 || pcS.Total() != pcS.Scalar {
		t.Errorf("scalar path counts %v, want all scalar", pcS)
	}
	if pcC.Closure == 0 || pcC.Total() != pcC.Closure {
		t.Errorf("closure path counts %v, want all closure", pcC)
	}
	// The metrics registry carries the same tally the local counts do.
	if got := regT.Snapshot().Counters[metrics.KernelPathSkewed].Total; got != pcT.Skewed {
		t.Errorf("registry skewed count %d, want %d", got, pcT.Skewed)
	}
	for _, o := range []struct {
		name string
		env  *expr.MapEnv
	}{{"tape (skewed)", envT}, {"tape (point walk)", envS}} {
		if d := o.env.Arrays["a"].MaxAbsDiff(region, envC.Arrays["a"]); d != 0 {
			t.Errorf("%s differs from the closure engine by %g", o.name, d)
		}
	}
}

// mkGroupBlocks builds nblocks independent scan blocks over one shared
// region: block i computes dst_i from the shared read-only src with a
// spannable forward recurrence.
func mkGroupBlocks(t *testing.T, n, nblocks int) ([]*Block, *expr.MapEnv) {
	t.Helper()
	bounds := grid.Square(2, 0, n)
	region := grid.MustRegion(grid.NewRange(1, n-1), grid.NewRange(0, n-1))
	env := &expr.MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{}}
	env.Arrays["src"] = field.MustNew("src", bounds, field.RowMajor)
	env.Arrays["src"].FillFunc(bounds, func(p grid.Point) float64 {
		return 0.9 + 0.13*float64(p[0]) - 0.04*float64(p[1])
	})
	blocks := make([]*Block, nblocks)
	for i := range blocks {
		name := string(rune('u' + i))
		env.Arrays[name] = field.MustNew(name, bounds, field.RowMajor)
		env.Arrays[name].Fill(float64(i + 1))
		blocks[i] = NewScan(region, Stmt{
			LHS: expr.Ref(name),
			RHS: expr.Binary{Op: expr.Add,
				L: expr.Ref(name).At(grid.Direction{-1, 0}).Prime(),
				R: expr.Ref("src")},
		})
	}
	return blocks, env
}

// TestFuseGroupStatic pins static group fusion: independent same-region
// scan blocks merge into one block (one tape pass, shared src loaded once),
// and the fused execution — over spans and point by point — is
// bit-identical to running the blocks in sequence on the closure engine.
func TestFuseGroupStatic(t *testing.T) {
	const n = 16
	blocks, env := mkGroupBlocks(t, n, 2)
	fb := fuseGroup(blocks, ExecOptions{})
	if fb == nil {
		t.Fatal("fuseGroup refused a fusable group")
	}
	if len(fb.Stmts) != 2 {
		t.Fatalf("fused block has %d statements, want 2", len(fb.Stmts))
	}

	// Reference: the same group executed sequentially on fresh fields by
	// compiled closures — no tape, so no shared load to get wrong.
	refBlocks, refEnv := mkGroupBlocks(t, n, 2)
	for _, b := range refBlocks {
		if err := Exec(b, refEnv, ExecOptions{Engine: EngineClosure}); err != nil {
			t.Fatal(err)
		}
	}
	reg := metrics.New(1)
	if err := ExecGroup(blocks, env, ExecOptions{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	ptBlocks, ptEnv := mkGroupBlocks(t, n, 2)
	if err := ExecGroup(ptBlocks, ptEnv, ExecOptions{Engine: EngineScalar}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"u", "v"} {
		if d := env.Arrays[name].MaxAbsDiff(blocks[0].Region, refEnv.Arrays[name]); d != 0 {
			t.Errorf("%s: fused group differs from sequential closures by %g", name, d)
		}
		if d := ptEnv.Arrays[name].MaxAbsDiff(blocks[0].Region, refEnv.Arrays[name]); d != 0 {
			t.Errorf("%s: fused group walked point by point differs from sequential closures by %g", name, d)
		}
	}
	// One fused kernel Run tallies both statements on the span path.
	if got := reg.Snapshot().Counters[metrics.KernelPathSpan].Total; got != 2 {
		t.Errorf("span tally %d, want 2 (one fused pass over both statements)", got)
	}
}

// TestFuseGroupRefusals pins the gate: task-DAG scheduling, mixed kinds,
// mismatched regions, and groups whose merged dependences derive no loop
// all refuse fusion (returning nil so ExecGroup falls back).
func TestFuseGroupRefusals(t *testing.T) {
	blocks, _ := mkGroupBlocks(t, 12, 2)
	if fuseGroup(blocks, ExecOptions{Scheduler: SchedTaskDAG}) != nil {
		t.Error("task-DAG group must not statically fuse")
	}
	mixed := []*Block{blocks[0], NewPlain(blocks[1].Region, blocks[1].Stmts...)}
	if fuseGroup(mixed, ExecOptions{}) != nil {
		t.Error("mixed-kind group must not fuse")
	}
	shrunk := NewScan(grid.MustRegion(grid.NewRange(1, 5), grid.NewRange(0, 5)), blocks[1].Stmts...)
	if fuseGroup([]*Block{blocks[0], shrunk}, ExecOptions{}) != nil {
		t.Error("mismatched-region group must not fuse")
	}

	// Counter-propagating recurrences: u flows low-to-high, w high-to-low
	// along dim 0. Merged, no single direction satisfies both.
	bounds := grid.Square(2, 0, 12)
	region := grid.MustRegion(grid.NewRange(1, 10), grid.NewRange(0, 11))
	env := &expr.MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{}}
	for _, name := range []string{"u", "w"} {
		env.Arrays[name] = field.MustNew(name, bounds, field.RowMajor)
		env.Arrays[name].Fill(1)
	}
	fwd := NewScan(region, Stmt{LHS: expr.Ref("u"),
		RHS: expr.Binary{Op: expr.Add, L: expr.Ref("u").At(grid.Direction{-1, 0}).Prime(), R: expr.Const(1)}})
	bwd := NewScan(region, Stmt{LHS: expr.Ref("w"),
		RHS: expr.Binary{Op: expr.Add, L: expr.Ref("w").At(grid.Direction{1, 0}).Prime(), R: expr.Const(1)}})
	if fuseGroup([]*Block{fwd, bwd}, ExecOptions{}) != nil {
		t.Error("counter-propagating group must not fuse")
	}
	// ...but ExecGroup still executes it correctly in sequence.
	if err := ExecGroup([]*Block{fwd, bwd}, env, ExecOptions{}); err != nil {
		t.Fatalf("sequential fallback failed: %v", err)
	}
}
