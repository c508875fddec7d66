package scan

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"wavefront/internal/bufpool"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/kernel"
)

// closureFold is the oracle: the per-point fold Reduce has always performed.
func closureFold(t *testing.T, op ReduceOp, region grid.Region, node expr.Node, env expr.Env) float64 {
	t.Helper()
	rd := NewReducer(node, env)
	rd.SetEngine(EngineClosure)
	v, err := rd.Reduce(op, region)
	if err != nil {
		t.Fatalf("closure fold: %v", err)
	}
	if rd.tape != nil {
		t.Fatal("EngineClosure lowered a tape")
	}
	return v
}

// tapeFold folds on the span tape whatever the region's size (Reduce itself
// keeps small regions on the closure).
func tapeFold(t *testing.T, op ReduceOp, region grid.Region, node expr.Node, env expr.Env) float64 {
	t.Helper()
	rd := NewReducer(node, env)
	if err := rd.check(region); err != nil {
		t.Fatalf("check: %v", err)
	}
	x, err := kernel.LowerExpr(region.Rank(), node, env)
	if err != nil {
		t.Fatalf("LowerExpr(%s): %v", node, err)
	}
	rd.tape = x
	return rd.foldTape(op, region)
}

// specials are the values a fold's order and comparisons are sensitive to.
var specials = []float64{
	math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e308, -1e308,
}

// reduceOperand draws an operand over a and b: bare references (shifted or
// not), sums, products, |·| and max/min — enough to cover memory-operand
// yields, register yields and every fold-relevant intrinsic.
func reduceOperand(rng *rand.Rand, rank int) expr.Node {
	ref := func() expr.Node {
		r := expr.Ref([]string{"a", "b"}[rng.Intn(2)])
		if rng.Intn(3) == 0 {
			shift := make(grid.Direction, rank)
			shift[rng.Intn(rank)] = 1 - 2*rng.Intn(2)
			r = r.At(shift)
		}
		return r
	}
	switch rng.Intn(7) {
	case 0:
		return ref()
	case 1:
		return expr.Call{Fn: expr.Abs, Args: []expr.Node{ref()}}
	case 2:
		return expr.Call{Fn: expr.Max, Args: []expr.Node{
			expr.Call{Fn: expr.Abs, Args: []expr.Node{ref()}},
			expr.Call{Fn: expr.Abs, Args: []expr.Node{ref()}}}}
	case 3:
		return expr.Call{Fn: expr.Min, Args: []expr.Node{ref(), ref()}}
	case 4:
		return expr.Binary{Op: expr.Sub, L: ref(), R: ref()}
	case 5:
		return expr.Binary{Op: expr.Mul, L: ref(), R: expr.Scalar("s")}
	}
	return expr.Binary{Op: expr.Add, L: expr.MulN(expr.Const(0.5), ref()), R: ref()}
}

// TestReduceTapeMatchesClosureFold: +<<, max<< and min<< on the tape equal
// the closure fold bit for bit — NaN payloads aside, a NaN is a NaN — over
// rank 1–3, row- and column-major, strided, single-row and empty regions,
// with NaN, ±0, ±Inf and overflow-sized values among the inputs.
func TestReduceTapeMatchesClosureFold(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 500; iter++ {
		rank := 1 + rng.Intn(3)
		n := 4 + rng.Intn(12)
		bounds := grid.Square(rank, -1, n+1)
		layA, layB := field.RowMajor, field.ColMajor
		switch rng.Intn(3) {
		case 0:
			layA, layB = layB, layA
		case 1:
			layB = layA
		}
		env := &expr.MapEnv{Arrays: map[string]*field.Field{
			"a": field.MustNew("a", bounds, layA),
			"b": field.MustNew("b", bounds, layB),
		}, Scalars: map[string]float64{"s": -0.75}}
		special := iter%2 == 0
		for _, f := range env.Arrays {
			f.FillFunc(bounds, func(grid.Point) float64 {
				if special && rng.Intn(6) == 0 {
					return specials[rng.Intn(len(specials))]
				}
				return 4*rng.Float64() - 2
			})
		}
		dims := make([]grid.Range, rank)
		for d := range dims {
			dims[d] = grid.Range{Lo: rng.Intn(2), Hi: n - 1 - rng.Intn(2), Stride: 1 + rng.Intn(2)}
			switch rng.Intn(14) {
			case 0:
				dims[d].Hi = dims[d].Lo
			case 1:
				dims[d] = grid.Range{Lo: 2, Hi: 1, Stride: 1}
			}
		}
		region := grid.MustRegion(dims...)
		node := reduceOperand(rng, rank)
		for _, op := range []ReduceOp{SumReduce, MaxReduce, MinReduce} {
			want := closureFold(t, op, region, node, env)
			got := tapeFold(t, op, region, node, env)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("iter %d: %v %s over %v (layouts %v/%v): tape %v (%#x) != closure %v (%#x)",
					iter, op, node, region, layA, layB, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestReduceFoldOrderAndSignedZero pins the two places a reordered or
// re-expressed fold would show: a sum whose value depends on association,
// and max/min over mixed signed zeros and NaN, where Combine's strict
// comparison keeps the earlier element.
func TestReduceFoldOrderAndSignedZero(t *testing.T) {
	bounds := grid.Square(2, 0, 31)
	f := field.MustNew("a", bounds, field.RowMajor)
	env := &expr.MapEnv{Arrays: map[string]*field.Field{"a": f}, Scalars: map[string]float64{}}
	// 1e16 then many 1s: left-to-right drops every 1; any pairwise or
	// multi-accumulator sum would keep some.
	f.Fill(1)
	f.Set(grid.Point{0, 0}, 1e16)
	for _, op := range []ReduceOp{SumReduce, MaxReduce, MinReduce} {
		want := closureFold(t, op, bounds, expr.Ref("a"), env)
		if got := tapeFold(t, op, bounds, expr.Ref("a"), env); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%v: tape %v != closure %v", op, got, want)
		}
	}
	if want := closureFold(t, SumReduce, bounds, expr.Ref("a"), env); want != 1e16 {
		t.Fatalf("the order-sensitive sum is not order-sensitive: %v", want)
	}
	negZero := math.Copysign(0, -1)
	for _, first := range []float64{0, negZero} {
		f.FillFunc(bounds, func(p grid.Point) float64 {
			switch {
			case p[0] == 0 && p[1] == 0:
				return first
			case (p[0]+p[1])%3 == 0:
				return math.NaN()
			case (p[0]+p[1])%3 == 1:
				return -first
			}
			return first
		})
		for _, op := range []ReduceOp{MaxReduce, MinReduce} {
			want := closureFold(t, op, bounds, expr.Ref("a"), env)
			got := tapeFold(t, op, bounds, expr.Ref("a"), env)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%v starting at %v: tape %#x != closure %#x", op, first, math.Float64bits(got), math.Float64bits(want))
			}
			if math.Signbit(got) != math.Signbit(first) {
				t.Errorf("%v: the first zero's sign (%v) should survive, got %v", op, first, got)
			}
		}
	}
}

// TestReducePicksTapeBySize: one-shot Reduce lowers from minReduceTape
// points on and not below; either way the value is the closure fold's.
func TestReducePicksTapeBySize(t *testing.T) {
	env := reduceEnv(40)
	node := expr.Call{Fn: expr.Abs, Args: []expr.Node{
		expr.Binary{Op: expr.Sub, L: expr.Ref("a").At(grid.North), R: expr.Ref("a")}}}
	for _, c := range []struct {
		region grid.Region
		tape   bool
	}{
		{grid.Square(2, 1, 16), false}, // testdata/heat.zpl's 256 points
		{grid.MustRegion(grid.NewRange(1, 16), grid.NewRange(1, 31)), false},
		{grid.MustRegion(grid.NewRange(1, 16), grid.NewRange(1, 32)), true},
		{grid.Square(2, 1, 40), true},
	} {
		rd := NewReducer(node, env)
		got, err := rd.Reduce(SumReduce, c.region)
		if err != nil {
			t.Fatal(err)
		}
		if (rd.tape != nil) != c.tape {
			t.Errorf("%v (%d points): tape = %v, want %v", c.region, c.region.Size(), rd.tape != nil, c.tape)
		}
		if want := closureFold(t, SumReduce, c.region, node, env); got != want {
			t.Errorf("%v: %v != closure %v", c.region, got, want)
		}
	}
}

// TestReducerRefusals: every refusal stays a structured error on the tape
// path (regions large enough to lower) and on a warm Reducer handed a new
// region, and a refused call does not poison the next good one.
func TestReducerRefusals(t *testing.T) {
	env := reduceEnv(40) // a over [0..41]²
	inside := grid.Square(2, 1, 40)
	edge := grid.Square(2, 0, 40) // a@north reads row -1
	north := expr.Ref("a").At(grid.North)

	var le *LegalityError
	if _, err := Reduce(MaxReduce, inside, north.Prime(), env); !errors.As(err, &le) || le.Condition != 5 {
		t.Errorf("primed operand over a tape-sized region: err = %v, want legality condition 5", err)
	}
	if _, err := Reduce(SumReduce, inside, expr.Ref("zz"), env); err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Errorf("unbound array: err = %v, want expr.Validate's unbound error", err)
	}
	if _, err := Reduce(SumReduce, inside, expr.Ref("a").At(grid.Direction{1}), env); err == nil || !strings.Contains(err.Error(), "rank") {
		t.Errorf("shift of the wrong rank: err = %v, want expr.Validate's rank error", err)
	}
	if _, err := Reduce(SumReduce, edge, north, env); err == nil || !strings.Contains(err.Error(), "outside bounds") {
		t.Errorf("out-of-bounds shifted read: err = %v, want the bounds error", err)
	}

	rd := NewReducer(north, env)
	want, err := rd.Reduce(SumReduce, inside)
	if err != nil || rd.tape == nil {
		t.Fatalf("warm-up: err %v, tape %v", err, rd.tape != nil)
	}
	if _, err := rd.Reduce(SumReduce, edge); err == nil || !strings.Contains(err.Error(), "outside bounds") {
		t.Errorf("cache hit with an out-of-bounds region: err = %v, want the bounds error", err)
	}
	if _, err := rd.Reduce(SumReduce, edge); err == nil {
		t.Error("the same bad region must be refused again, not remembered as checked")
	}
	if got, err := rd.Reduce(SumReduce, inside); err != nil || got != want {
		t.Errorf("after a refusal: %v, %v; want %v", got, err, want)
	}

	// A primed operand is refused however warm the caller's cache is.
	prd := NewReducer(north.Prime(), env)
	for i := 0; i < 2; i++ {
		if _, err := prd.Reduce(MaxReduce, inside); !errors.As(err, &le) || le.Condition != 5 {
			t.Errorf("call %d: err = %v, want legality condition 5", i, err)
		}
	}

	// An operand the tape refuses (unbound scalar) is the closure compile's
	// error, as before.
	if _, err := Reduce(SumReduce, inside, expr.Binary{Op: expr.Mul, L: expr.Ref("a"), R: expr.Scalar("nope")}, env); err == nil {
		t.Error("unbound scalar must fail")
	}
}

// TestReducerRebindsScalars: tape and closure capture scalars when built; a
// Reducer that outlives a change to one must fold with the new value.
func TestReducerRebindsScalars(t *testing.T) {
	for _, region := range []grid.Region{grid.Square(2, 1, 8), grid.Square(2, 1, 40)} {
		env := reduceEnv(40)
		env.Scalars["mean"] = 0
		node := expr.Binary{Op: expr.Sub, L: expr.Ref("a"), R: expr.Scalar("mean")}
		rd := NewReducer(node, env)
		s0, err := rd.Reduce(SumReduce, region)
		if err != nil {
			t.Fatal(err)
		}
		env.Scalars["mean"] = s0 / float64(region.Size())
		s1, err := rd.Reduce(SumReduce, region)
		if err != nil {
			t.Fatal(err)
		}
		if want := closureFold(t, SumReduce, region, node, env); s1 != want {
			t.Errorf("%v: after rebinding mean: %v, want %v (stale capture gives %v)", region, s1, want, s0)
		}
		if s1 == s0 {
			t.Errorf("%v: the scalar change did not reach the fold", region)
		}
	}
}

// TestReducerWarmZeroAllocs: a warm tape fold — same region, registers from
// a pool — allocates nothing, including the re-validation it skips.
func TestReducerWarmZeroAllocs(t *testing.T) {
	env := reduceEnv(62)
	region := grid.Square(2, 1, 62)
	node := expr.Call{Fn: expr.Max, Args: []expr.Node{
		expr.Call{Fn: expr.Abs, Args: []expr.Node{expr.Ref("a")}},
		expr.Call{Fn: expr.Abs, Args: []expr.Node{expr.Ref("a").At(grid.North)}}}}
	rd := NewReducer(node, env)
	pool := bufpool.NewWithConfig(1, bufpool.Config{Track: true})
	rd.SetScratch(pool, 0)
	fold := func() {
		if _, err := rd.Reduce(MaxReduce, region); err != nil {
			t.Fatal(err)
		}
	}
	fold()
	if a := testing.AllocsPerRun(20, fold); a != 0 {
		t.Errorf("warm fold allocated %.0f times, want 0", a)
	}
	rd.ReleaseScratch()
	if out := pool.Outstanding(); out != 0 {
		t.Errorf("%d registers still leased after ReleaseScratch", out)
	}
}

// TestReducerSecondFoldTakesTheTape: below minReduceTape a first fold is the
// closure's and leaves no tape behind; the same Reducer's second fold lowers
// and folds on the tape, and both equal the closure fold bit for bit — over
// NaN, signed zeros and mixed signs, where a reordered or re-expressed fold
// would show.
func TestReducerSecondFoldTakesTheTape(t *testing.T) {
	negZero := math.Copysign(0, -1)
	fills := map[string]func(p grid.Point) float64{
		"mixed-sign": func(p grid.Point) float64 { return float64((p[0]*7+p[1]*3)%11) - 5.25 },
		"nan": func(p grid.Point) float64 {
			if (p[0]+p[1])%3 == 0 {
				return math.NaN()
			}
			return float64(p[1] - p[0])
		},
		"signed-zeros": func(p grid.Point) float64 {
			if (p[0]+p[1])%2 == 0 {
				return negZero
			}
			return 0
		},
		"zeros-then-nan": func(p grid.Point) float64 {
			switch {
			case p[0] == 1 && p[1] == 1:
				return negZero
			case (p[0]+p[1])%4 == 0:
				return math.NaN()
			}
			return 0
		},
	}
	operands := []expr.Node{
		expr.Ref("a"),
		expr.Binary{Op: expr.Sub, L: expr.Ref("a"), R: expr.Ref("a").At(grid.West)},
		expr.Call{Fn: expr.Abs, Args: []expr.Node{expr.Ref("a")}},
	}
	regions := []grid.Region{grid.Square(2, 1, 4), grid.Square(2, 1, 8), grid.Square(2, 1, 16)} // 16, 64 and 256 points
	for w := 1; w <= 3; w++ {
		// The tape takes a warm fold at any span, one point included.
		regions = append(regions, grid.MustRegion(grid.NewRange(1, 8), grid.NewRange(1, w)))
	}
	for _, region := range regions {
		for name, fill := range fills {
			env := reduceEnv(16)
			env.Arrays["a"].FillFunc(env.Arrays["a"].Bounds(), fill)
			for _, node := range operands {
				for _, op := range []ReduceOp{SumReduce, MaxReduce, MinReduce} {
					want := closureFold(t, op, region, node, env)
					rd := NewReducer(node, env)
					for fold := 1; fold <= 3; fold++ {
						got, err := rd.Reduce(op, region)
						if err != nil {
							t.Fatal(err)
						}
						if onTape := rd.tape != nil; onTape != (fold > 1) {
							t.Fatalf("%d points, fold %d: on the tape = %v", region.Size(), fold, onTape)
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("%s, %d points, %v %s, fold %d: %v (%#x) != closure %v (%#x)", name, region.Size(),
								op, node, fold, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}
