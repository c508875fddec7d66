package scan

import (
	"testing"

	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
)

// TestRank3ScanBlock runs a 3-D wavefront: v := v'@(-1,0,0) + v'@(0,-1,0) + v'@(0,0,-1) + 1.
func TestRank3ScanBlock(t *testing.T) {
	n := 6
	bounds := grid.Square(3, 0, n)
	region := grid.Square(3, 1, n)
	env := &expr.MapEnv{Arrays: map[string]*field.Field{
		"v": field.MustNew("v", bounds, field.RowMajor),
	}, Scalars: map[string]float64{}}
	env.Arrays["v"].Fill(0)
	blk := NewScan(region, Stmt{
		LHS: expr.Ref("v"),
		RHS: expr.AddN(
			expr.Ref("v").At(grid.Direction{-1, 0, 0}).Prime(),
			expr.Ref("v").At(grid.Direction{0, -1, 0}).Prime(),
			expr.Ref("v").At(grid.Direction{0, 0, -1}).Prime(),
			expr.Const(1)),
	})
	an, err := Analyze(blk, dep.Preference{PreferLow: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := an.WSV.String(); got != "(-,-,-)" {
		t.Errorf("WSV = %s", got)
	}
	if err := Exec(blk, env, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	// Reference by hand.
	ref := field.MustNew("ref", bounds, field.RowMajor)
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			for k := 1; k <= n; k++ {
				p := grid.Point{i, j, k}
				v := ref.At(grid.Point{i - 1, j, k}) + ref.At(grid.Point{i, j - 1, k}) +
					ref.At(grid.Point{i, j, k - 1}) + 1
				ref.Set(p, v)
			}
		}
	}
	if d := env.Arrays["v"].MaxAbsDiff(region, ref); d != 0 {
		t.Errorf("rank-3 scan differs from reference by %g", d)
	}
}

// TestInterchangedNest: a wavefront along dimension 1 forces the loop over
// dimension 1 outermost.
func TestInterchangedNest(t *testing.T) {
	n := 8
	bounds := grid.MustRegion(grid.NewRange(0, n+1), grid.NewRange(1, n+1))
	region := grid.Square(2, 1, n)
	env := &expr.MapEnv{Arrays: map[string]*field.Field{
		"a": field.MustNew("a", bounds, field.RowMajor),
	}, Scalars: map[string]float64{}}
	env.Arrays["a"].Fill(1)
	// Example 3 of the paper: dirs (-1,0) and (1,1); dim 1 outermost,
	// high-to-low.
	blk := NewScan(region, Stmt{
		LHS: expr.Ref("a"),
		RHS: expr.AddN(
			expr.MulN(expr.Const(0.25), expr.Ref("a").At(grid.Direction{-1, 0}).Prime()),
			expr.MulN(expr.Const(0.25), expr.Ref("a").At(grid.Direction{1, 1}).Prime()),
			expr.Const(0.5)),
	})
	an, err := Analyze(blk, dep.Preference{PreferLow: true})
	if err != nil {
		t.Fatal(err)
	}
	if an.Loop.Perm[0] != 1 {
		t.Fatalf("expected dim 1 outermost, got %v", an.Loop)
	}
	if err := Exec(blk, env, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	// Reference executed in the same derived order, point by point.
	ref := field.MustNew("ref", bounds, field.RowMajor)
	ref.Fill(1)
	for j := n; j >= 1; j-- {
		for i := 1; i <= n; i++ {
			v := 0.25*ref.At2(i-1, j) + 0.25*ref.At2(i+1, j+1) + 0.5
			ref.Set2(i, j, v)
		}
	}
	if d := env.Arrays["a"].MaxAbsDiff(region, ref); d != 0 {
		t.Errorf("interchanged nest differs by %g", d)
	}
}

// TestStridedRegion: strided covering regions touch every other element
// only.
func TestStridedRegion(t *testing.T) {
	n := 9
	bounds := grid.Square(2, 1, n)
	region := grid.MustRegion(grid.Range{Lo: 1, Hi: n, Stride: 2}, grid.NewRange(1, n))
	env := &expr.MapEnv{Arrays: map[string]*field.Field{
		"a": field.MustNew("a", bounds, field.RowMajor),
	}, Scalars: map[string]float64{}}
	env.Arrays["a"].Fill(0)
	blk := NewPlain(region, Stmt{LHS: expr.Ref("a"), RHS: expr.Const(5)})
	if err := Exec(blk, env, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	a := env.Arrays["a"]
	if a.At2(1, 4) != 5 || a.At2(3, 4) != 5 || a.At2(9, 4) != 5 {
		t.Error("odd rows must be written")
	}
	if a.At2(2, 4) != 0 || a.At2(8, 4) != 0 {
		t.Error("even rows must stay zero")
	}
}

// TestUnloweredKernelRunsOnClosures: the one way a Kernel reaches Run with
// no tape is NewKernel over a block whose dependences do not collect (here a
// primed read of an array the block never writes). Under EngineTape it runs
// the per-point closures, says so in the tally, and computes what the
// closure engine computes for the legal spelling of the same statement.
func TestUnloweredKernelRunsOnClosures(t *testing.T) {
	const n = 6
	bounds, region := grid.Square(2, 0, n+1), grid.Square(2, 1, n)
	stmt := func(b expr.ArrayRef) Stmt {
		return Stmt{LHS: expr.Ref("a"), RHS: expr.AddN(expr.MulN(expr.Const(0.5), b.At(grid.North)), expr.Ref("a"))}
	}
	mkEnv := func() *expr.MapEnv {
		env := env2([]string{"a", "b"}, bounds)
		env.Arrays["a"].FillFunc(bounds, func(p grid.Point) float64 { return 0.25*float64(p[0]) - 0.75*float64(p[1]) })
		env.Arrays["b"].FillFunc(bounds, func(p grid.Point) float64 { return 1.5 + 0.1*float64(p[0]*p[1]) })
		return env
	}
	bad := NewPlain(region, stmt(expr.Ref("b").Prime()))
	if _, err := Analyze(bad, dep.Preference{}); err == nil {
		t.Fatal("the block analyses; it does not exercise the fallback")
	}
	env := mkEnv()
	k, err := NewKernel(bad, env)
	if err != nil {
		t.Fatal(err)
	}
	if k.prog != nil {
		t.Fatal("NewKernel lowered a block whose dependences do not collect")
	}
	k.Run(region, dep.Identity(2))
	if pc := k.PathCounts(); pc.Closure != 1 || pc.Total() != 1 {
		t.Errorf("path counts %v, want the one statement on the closure path", pc)
	}
	want := mkEnv()
	if err := Exec(NewPlain(region, stmt(expr.Ref("b"))), want, ExecOptions{Engine: EngineClosure}); err != nil {
		t.Fatal(err)
	}
	if i := firstBitDiff(env.Arrays["a"], want.Arrays["a"]); i >= 0 {
		t.Fatalf("a[%d] = %v, closure engine %v", i, env.Arrays["a"].Data()[i], want.Arrays["a"].Data()[i])
	}
}

// TestUnboundArrayInExec: an unbound name is a construction error, not a
// fallback.
func TestUnboundArrayInExec(t *testing.T) {
	region := grid.Square(2, 1, 4)
	env := &expr.MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{}}
	blk := NewPlain(region, Stmt{LHS: expr.Ref("a"), RHS: expr.Const(1)})
	if err := Exec(blk, env, ExecOptions{}); err == nil {
		t.Error("unbound destination must fail")
	}
}

func TestKernelReuseAcrossRegions(t *testing.T) {
	n := 8
	bounds := grid.Square(2, 0, n+1)
	env := &expr.MapEnv{Arrays: map[string]*field.Field{
		"a": field.MustNew("a", bounds, field.RowMajor),
	}, Scalars: map[string]float64{}}
	env.Arrays["a"].Fill(1)
	blk := NewScan(grid.Square(2, 1, n), Stmt{
		LHS: expr.Ref("a"),
		RHS: expr.MulN(expr.Const(2), expr.Ref("a").At(grid.North).Prime()),
	})
	an, err := Analyze(blk, dep.Preference{PreferLow: true})
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKernel(blk, env)
	if err != nil {
		t.Fatal(err)
	}
	// Run the same kernel over two disjoint sub-regions; combined effect
	// equals running over the union when they tile it in order.
	top := grid.MustRegion(grid.NewRange(1, 4), grid.NewRange(1, n))
	bot := grid.MustRegion(grid.NewRange(5, n), grid.NewRange(1, n))
	k.Run(top, an.Loop)
	k.Run(bot, an.Loop)

	refEnv := &expr.MapEnv{Arrays: map[string]*field.Field{
		"a": field.MustNew("a", bounds, field.RowMajor),
	}, Scalars: map[string]float64{}}
	refEnv.Arrays["a"].Fill(1)
	if err := Exec(blk, refEnv, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if d := env.Arrays["a"].MaxAbsDiff(blk.Region, refEnv.Arrays["a"]); d != 0 {
		t.Errorf("kernel reuse differs by %g", d)
	}
}
