package kernel

import (
	"math"
	"math/rand"
	"testing"

	"wavefront/internal/bufpool"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
)

// TestExprSpansMatchClosure: the spans of a lowered bare expression,
// concatenated in the order Begin/Span hands them out, are the values the
// compiled closure yields in Region.Each(nil, …) order — bit for bit, over
// rank 1–3, both layouts, strided, single-row and empty regions. A fold
// that consumes them in order therefore folds what the closure fold folds.
func TestExprSpansMatchClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 400; iter++ {
		rank := 1 + rng.Intn(3)
		n := 3 + rng.Intn(9)
		bounds := grid.Square(rank, -1, n+1)
		layA, layB := field.RowMajor, field.ColMajor
		switch rng.Intn(3) {
		case 0:
			layA, layB = layB, layA
		case 1:
			layB = layA
		}
		env := &expr.MapEnv{
			Arrays: map[string]*field.Field{
				"a": field.MustNew("a", bounds, layA),
				"b": field.MustNew("b", bounds, layB),
			},
			Scalars: map[string]float64{"s": 1.25},
		}
		for _, f := range env.Arrays {
			f.FillFunc(bounds, func(grid.Point) float64 { return 0.5 + 3*rng.Float64() })
		}
		dims := make([]grid.Range, rank)
		for d := range dims {
			lo := rng.Intn(2)
			hi := n - 1 - rng.Intn(2)
			dims[d] = grid.Range{Lo: lo, Hi: hi, Stride: 1 + rng.Intn(2)}
			switch rng.Intn(12) {
			case 0:
				dims[d].Hi = lo // single row / column
			case 1:
				dims[d] = grid.Range{Lo: 2, Hi: 1, Stride: 1} // empty
			}
		}
		region := grid.MustRegion(dims...)
		node := genTree(rng, rank, 3)
		cl, err := expr.Compile(node, env)
		if err != nil {
			t.Fatal(err)
		}
		x, err := LowerExpr(rank, node, env)
		if err != nil {
			t.Fatalf("iter %d: LowerExpr(%s): %v", iter, node, err)
		}
		var got []float64
		spans := x.Begin(region)
		for k := 0; k < spans; k++ {
			got = append(got, x.Span(k)...)
		}
		if len(got) != region.Size() && !(region.Empty() && len(got) == 0) {
			t.Fatalf("iter %d: %d spans yielded %d values over %v (%d points)", iter, spans, len(got), region, region.Size())
		}
		i := 0
		region.Each(nil, func(p grid.Point) {
			if want := cl(p); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("iter %d: %s at %v (region %v): tape %v != closure %v", iter, node, p, region, got[i], want)
			}
			i++
		})
	}
}

// TestExprBareReference: a bare unit-step array reference computes nothing,
// so its spans are the field's own storage (no copy at all); on a
// column-major field the same reference gathers into a register.
func TestExprBareReference(t *testing.T) {
	bounds := grid.Square(2, 0, 9)
	region := grid.Square(2, 1, 8)
	for _, lay := range []field.Layout{field.RowMajor, field.ColMajor} {
		f := field.MustNew("a", bounds, lay)
		f.FillFunc(bounds, func(p grid.Point) float64 { return float64(10*p[0] + p[1]) })
		env := &expr.MapEnv{Arrays: map[string]*field.Field{"a": f}, Scalars: map[string]float64{}}
		x, err := LowerExpr(2, expr.Ref("a"), env)
		if err != nil {
			t.Fatal(err)
		}
		if spans := x.Begin(region); spans != 8 {
			t.Fatalf("%v: %d spans, want 8", lay, spans)
		}
		v := x.Span(2) // row 3
		for j, got := range v {
			if want := float64(30 + 1 + j); got != want {
				t.Fatalf("%v: span 2 element %d = %g, want %g", lay, j, got, want)
			}
		}
		data := f.Data()
		aliases := &v[0] == &data[f.Index(grid.Point{3, 1})]
		if want := lay == field.RowMajor; aliases != want {
			t.Errorf("%v: span aliases the field's storage = %v, want %v", lay, aliases, want)
		}
	}
}

// TestExprConstantAndErrors: a constant operand broadcasts; whatever Lower
// refuses, LowerExpr refuses.
func TestExprConstantAndErrors(t *testing.T) {
	bounds2, bounds3 := grid.Square(2, 0, 4), grid.Square(3, 0, 4)
	env := &expr.MapEnv{
		Arrays: map[string]*field.Field{
			"a": field.MustNew("a", bounds2, field.RowMajor),
			"v": field.MustNew("v", bounds3, field.RowMajor),
		},
		Scalars: map[string]float64{"s": 2},
	}
	x, err := LowerExpr(2, expr.Binary{Op: expr.Mul, L: expr.Scalar("s"), R: expr.Const(1.5)}, env)
	if err != nil {
		t.Fatal(err)
	}
	if spans := x.Begin(bounds2); spans != 5 {
		t.Fatalf("constant: %d spans, want 5", spans)
	}
	for _, got := range x.Span(4) {
		if got != 3 {
			t.Fatalf("constant span holds %g, want 3", got)
		}
	}
	for name, node := range map[string]expr.Node{
		"unbound array":  expr.Ref("zz"),
		"unbound scalar": expr.Scalar("zz"),
		"rank mismatch":  expr.Ref("v"),
		"shift rank":     expr.Ref("a").At(grid.Direction{1}),
	} {
		if _, err := LowerExpr(2, node, env); err == nil {
			t.Errorf("%s must fail to lower", name)
		}
	}
	if _, err := LowerExpr(0, expr.Const(1), env); err == nil {
		t.Error("rank 0 must fail to lower")
	}
}

// TestExprScratchPoolAndAllocs: registers come from the pool and go back,
// and a warm Begin + Span pass allocates nothing.
func TestExprScratchPoolAndAllocs(t *testing.T) {
	bounds := grid.Square(2, 0, 33)
	region := grid.Square(2, 1, 32)
	env := &expr.MapEnv{Arrays: map[string]*field.Field{
		"a": field.MustNew("a", bounds, field.RowMajor),
		"b": field.MustNew("b", bounds, field.RowMajor),
	}, Scalars: map[string]float64{}}
	node := expr.Call{Fn: expr.Max, Args: []expr.Node{
		expr.Call{Fn: expr.Abs, Args: []expr.Node{expr.Ref("a")}},
		expr.Call{Fn: expr.Abs, Args: []expr.Node{expr.Ref("b").At(grid.North)}}}}
	x, err := LowerExpr(2, node, env)
	if err != nil {
		t.Fatal(err)
	}
	pool := bufpool.NewWithConfig(1, bufpool.Config{Track: true})
	x.SetScratch(pool, 0)
	pass := func() {
		spans := x.Begin(region)
		for k := 0; k < spans; k++ {
			x.Span(k)
		}
	}
	pass()
	if pool.Outstanding() == 0 {
		t.Error("no registers leased from the pool")
	}
	if a := testing.AllocsPerRun(20, pass); a != 0 {
		t.Errorf("warm pass allocated %.0f times, want 0", a)
	}
	x.ReleaseScratch()
	if out := pool.Outstanding(); out != 0 {
		t.Errorf("%d registers still leased after ReleaseScratch", out)
	}
}
