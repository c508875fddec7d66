package kernel

import (
	"math"
	"math/rand"
	"testing"

	"wavefront/internal/bufpool"
	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
)

func udv(dist ...int) dep.UDV {
	return dep.UDV{Kind: dep.True, Dist: grid.Direction(dist)}
}

func TestSpanMask(t *testing.T) {
	cases := []struct {
		name string
		rank int
		udvs []dep.UDV
		want []bool
	}{
		{"no deps", 2, nil, []bool{true, true}},
		{"zero UDV ignored", 2, []dep.UDV{udv(0, 0)}, []bool{true, true}},
		{"tomcatv forward", 2, []dep.UDV{udv(1, 0)}, []bool{false, true}},
		{"inner-carried", 2, []dep.UDV{udv(0, 1)}, []bool{true, false}},
		{"diagonal is outer-carried", 2, []dep.UDV{udv(1, 1)}, []bool{true, true}},
		{"sweep3d axes", 3, []dep.UDV{udv(1, 0, 0), udv(0, 1, 0), udv(0, 0, 1)}, []bool{false, false, false}},
		{"mixed", 3, []dep.UDV{udv(1, 1, 0), udv(0, 0, 2)}, []bool{true, true, false}},
	}
	for _, c := range cases {
		if got := SpanMask(c.rank, c.udvs); !boolsEq(got, c.want) {
			t.Errorf("%s: SpanMask = %v, want %v", c.name, got, c.want)
		}
	}
}

func boolsEq(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// genTree builds a random expression over arrays "a" (RowMajor) and "b"
// (ColMajor) with shifts within the halo. Field values stay in [0.5, 3.5]
// so log/sqrt/pow stay finite — bit-identity is the point, not NaN trivia
// (the engines share NaN behavior anyway; Eval's min/max does not).
func genTree(rng *rand.Rand, rank, depth int) expr.Node {
	if depth <= 0 || rng.Intn(4) == 0 {
		switch rng.Intn(4) {
		case 0:
			return expr.Const(math.Round(rng.Float64()*16-8) / 4)
		case 1:
			return expr.Scalar("s")
		default:
			name := "a"
			if rng.Intn(2) == 0 {
				name = "b"
			}
			r := expr.Ref(name)
			if rng.Intn(2) == 0 {
				shift := make(grid.Direction, rank)
				for d := range shift {
					shift[d] = rng.Intn(3) - 1
				}
				r = r.At(shift)
			}
			return r
		}
	}
	switch rng.Intn(8) {
	case 0:
		return expr.Unary{Op: expr.Neg, X: genTree(rng, rank, depth-1)}
	case 1:
		return expr.Call{Fn: expr.Sqrt, Args: []expr.Node{expr.Call{Fn: expr.Abs, Args: []expr.Node{genTree(rng, rank, depth-1)}}}}
	case 2:
		return expr.Call{Fn: expr.Min, Args: []expr.Node{genTree(rng, rank, depth-1), genTree(rng, rank, depth-1)}}
	case 3:
		return expr.Call{Fn: expr.Max, Args: []expr.Node{genTree(rng, rank, depth-1), genTree(rng, rank, depth-1)}}
	default:
		ops := []expr.Op{expr.Add, expr.Sub, expr.Mul, expr.Div}
		return expr.Binary{Op: ops[rng.Intn(len(ops))], L: genTree(rng, rank, depth-1), R: genTree(rng, rank, depth-1)}
	}
}

// forceScalar builds UDVs that disqualify every dimension from span
// execution, steering Run off the span path.
func forceScalar(rank int) []dep.UDV {
	var udvs []dep.UDV
	for d := 0; d < rank; d++ {
		dist := make(grid.Direction, rank)
		dist[d] = 1
		udvs = append(udvs, dep.UDV{Kind: dep.True, Dist: dist})
	}
	return udvs
}

func randLoop(rng *rand.Rand, rank int) dep.LoopSpec {
	spec := dep.Identity(rank)
	rng.Shuffle(rank, func(i, j int) { spec.Perm[i], spec.Perm[j] = spec.Perm[j], spec.Perm[i] })
	for d := range spec.Dirs {
		if rng.Intn(2) == 0 {
			spec.Dirs[d] = grid.HighToLow
		}
	}
	return spec
}

// TestTapeMatchesClosure is the core property test: random expression trees
// × random regions (strided included) × random loop orders must agree
// bit-for-bit with Eval and Compile, over spans and — with spans ruled out
// — over skewed diagonals or point by point, across ranks 1–3 and both
// layouts.
func TestTapeMatchesClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 400; iter++ {
		rank := 1 + rng.Intn(3)
		halo := 1
		n := 3 + rng.Intn(5)
		bounds := grid.Square(rank, -halo, n+halo)
		layA, layB := field.RowMajor, field.ColMajor
		if rng.Intn(2) == 0 {
			layA, layB = layB, layA
		}
		env := &expr.MapEnv{
			Arrays: map[string]*field.Field{
				"a":   field.MustNew("a", bounds, layA),
				"b":   field.MustNew("b", bounds, layB),
				"dst": field.MustNew("dst", bounds, layA),
			},
			Scalars: map[string]float64{"s": 1.25},
		}
		for _, name := range []string{"a", "b"} {
			f := env.Arrays[name]
			f.FillFunc(bounds, func(grid.Point) float64 { return 0.5 + 3*rng.Float64() })
		}

		// Random interior region, possibly strided.
		dims := make([]grid.Range, rank)
		for d := range dims {
			lo := rng.Intn(2)
			hi := n - 1 - rng.Intn(2)
			if hi < lo {
				hi = lo
			}
			dims[d] = grid.Range{Lo: lo, Hi: hi, Stride: 1 + rng.Intn(2)}
		}
		region := grid.MustRegion(dims...)

		node := genTree(rng, rank, 3)
		cl, err := expr.Compile(node, env)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		loop := randLoop(rng, rank)

		for _, scalar := range []bool{false, true} {
			var udvs []dep.UDV
			if scalar {
				udvs = forceScalar(rank)
			}
			pr, err := Lower(rank, stmts([]string{"dst"}, []expr.Node{node}), env, udvs)
			if err != nil {
				t.Fatalf("Lower: %v", err)
			}
			if scalar == pr.spanOK[loop.Perm[rank-1]] {
				t.Fatalf("scalar=%v but spanOK[%d]=%v", scalar, loop.Perm[rank-1], pr.spanOK[loop.Perm[rank-1]])
			}
			env.Arrays["dst"].Fill(0)
			pr.Run(region, loop)
			dst := env.Arrays["dst"]
			region.Each(nil, func(p grid.Point) {
				want := cl(p)
				got := dst.At(p)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("iter %d scalar=%v %s at %v (region %v loop %v): tape %v != closure %v",
						iter, scalar, node, p, region, loop, got, want)
				}
				if ev := node.Eval(env, p); math.Float64bits(ev) != math.Float64bits(want) &&
					!(math.IsNaN(ev) && math.IsNaN(want)) {
					t.Fatalf("iter %d %s at %v: Eval %v != Compile %v", iter, node, p, ev, want)
				}
			})
		}
	}
}

// TestTapeMultiStatement checks statement-at-a-time span execution against
// the closure semantics when statement 2 reads statement 1's output at zero
// distance (the only cross-statement dependence span execution must — and
// does — preserve).
func TestTapeMultiStatement(t *testing.T) {
	bounds := grid.Square(2, 0, 7)
	mk := func() *expr.MapEnv {
		env := &expr.MapEnv{
			Arrays: map[string]*field.Field{
				"a": field.MustNew("a", bounds, field.RowMajor),
				"u": field.MustNew("u", bounds, field.RowMajor),
				"v": field.MustNew("v", bounds, field.RowMajor),
			},
			Scalars: map[string]float64{},
		}
		env.Arrays["a"].FillFunc(bounds, func(p grid.Point) float64 {
			return 1 + 0.3*float64(p[0]) + 0.07*float64(p[1])
		})
		return env
	}
	rhsU := expr.Binary{Op: expr.Mul, L: expr.Ref("a"), R: expr.Const(2)}
	rhsV := expr.Binary{Op: expr.Add, L: expr.Ref("u"), R: expr.Ref("a")} // reads stmt 1's result

	region := grid.Square(2, 1, 6)
	loop := dep.Identity(2)

	ref := mk()
	clU, _ := expr.Compile(rhsU, ref)
	clV, _ := expr.Compile(rhsV, ref)
	region.Each(nil, func(p grid.Point) {
		ref.Arrays["u"].Set(p, clU(p))
		ref.Arrays["v"].Set(p, clV(p))
	})

	env := mk()
	pr, err := Lower(2, stmts([]string{"u", "v"},
		[]expr.Node{rhsU, rhsV}), env, nil)
	if err != nil {
		t.Fatal(err)
	}
	pr.Run(region, loop)
	for _, name := range []string{"u", "v"} {
		if d := env.Arrays[name].MaxAbsDiff(region, ref.Arrays[name]); d != 0 {
			t.Errorf("%s: span execution differs from per-point by %g", name, d)
		}
	}
}

// TestScratchPool checks the register lease lifecycle: leases come from the
// pool, survive repeated runs without re-leasing, and drain on release,
// which keeps the operand table; without a pool the registers are the
// program's own scratch and a release keeps them too, so a kept program
// reruns without allocating.
func TestScratchPool(t *testing.T) {
	bounds := grid.Square(2, 0, 9)
	env := &expr.MapEnv{
		Arrays: map[string]*field.Field{
			"a":   field.MustNew("a", bounds, field.RowMajor),
			"dst": field.MustNew("dst", bounds, field.RowMajor),
		},
		Scalars: map[string]float64{},
	}
	env.Arrays["a"].Fill(1.5)
	node := expr.Binary{Op: expr.Add,
		L: expr.Binary{Op: expr.Mul, L: expr.Ref("a"), R: expr.Ref("a").At(grid.Direction{0, 1})},
		R: expr.Ref("a").At(grid.Direction{0, -1})}
	pr, err := Lower(2, stmts([]string{"dst"}, []expr.Node{node}), env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Registers() < 2 {
		t.Fatalf("expected >= 2 registers, got %d", pr.Registers())
	}
	pool := bufpool.NewWithConfig(2, bufpool.Config{Track: true, Poison: true})
	pr.SetScratch(pool, 1)
	region := grid.Square(2, 1, 8)
	pr.Run(region, dep.Identity(2))
	if out := pool.Outstanding(); out != pr.Registers() {
		t.Errorf("after Run: Outstanding = %d, want %d", out, pr.Registers())
	}
	st0 := pool.Stats()
	for i := 0; i < 5; i++ {
		pr.Run(region, dep.Identity(2)) // same span length: no re-lease
	}
	if st1 := pool.Stats(); st1.Hits != st0.Hits || st1.Misses != st0.Misses {
		t.Errorf("steady-state reruns touched the pool: %+v -> %+v", st0, st1)
	}
	pr.ReleaseScratch()
	if out := pool.Outstanding(); out != 0 {
		t.Errorf("after ReleaseScratch: Outstanding = %d, want 0", out)
	}
	// Re-running re-leases (now hits) and still computes.
	pr.Run(region, dep.Identity(2))
	pr.ReleaseScratch()
	if got := env.Arrays["dst"].At(grid.Point{4, 4}); got != 1.5*1.5+1.5 {
		t.Errorf("pooled run computed %g, want %g", got, 1.5*1.5+1.5)
	}
	loop := dep.Identity(2)
	rerun := func() {
		pr.Run(region, loop)
		pr.ReleaseScratch()
	}
	if a := testing.AllocsPerRun(20, rerun); a != 0 {
		t.Errorf("a pooled run and release allocate %.0f times, want 0", a)
	}
	pr.SetScratch(nil, 0)
	if a := testing.AllocsPerRun(20, rerun); a != 0 {
		t.Errorf("an unpooled run and release allocate %.0f times, want 0", a)
	}
}

func TestLowerErrors(t *testing.T) {
	bounds2 := grid.Square(2, 0, 4)
	bounds3 := grid.Square(3, 0, 4)
	env := &expr.MapEnv{
		Arrays: map[string]*field.Field{
			"a": field.MustNew("a", bounds2, field.RowMajor),
			"v": field.MustNew("v", bounds3, field.RowMajor),
		},
		Scalars: map[string]float64{},
	}
	dst := []string{"a"}
	if _, err := Lower(2, stmts(dst, []expr.Node{expr.Ref("zz")}), env, nil); err == nil {
		t.Error("unbound array must fail to lower")
	}
	if _, err := Lower(2, stmts(dst, []expr.Node{expr.Scalar("zz")}), env, nil); err == nil {
		t.Error("unbound scalar must fail to lower")
	}
	if _, err := Lower(2, stmts(dst, []expr.Node{expr.Ref("v")}), env, nil); err == nil {
		t.Error("rank-mismatched reference must fail to lower")
	}
	if _, err := Lower(2, stmts([]string{"zz"}, []expr.Node{expr.Const(1)}), env, nil); err == nil {
		t.Error("unbound destination must fail to lower")
	}
}
