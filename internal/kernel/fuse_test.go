package kernel

import (
	"testing"

	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
)

func fuseEnv(n int) *expr.MapEnv {
	bounds := grid.Square(2, -1, n+1)
	env := &expr.MapEnv{
		Arrays: map[string]*field.Field{
			"a": field.MustNew("a", bounds, field.RowMajor),
			"b": field.MustNew("b", bounds, field.RowMajor),
			"u": field.MustNew("u", bounds, field.RowMajor),
			"v": field.MustNew("v", bounds, field.RowMajor),
		},
		Scalars: map[string]float64{},
	}
	for i, name := range []string{"a", "b", "u", "v"} {
		k := float64(i + 1)
		env.Arrays[name].FillFunc(bounds, func(p grid.Point) float64 {
			return k + 0.31*float64(p[0]) + 0.07*float64(p[1])
		})
	}
	return env
}

// TestFusedLoadDedup pins the fusion contract "one load per shared
// operand": two statements reading the same shifted operands share a single
// load each in the fused tape.
func TestFusedLoadDedup(t *testing.T) {
	env := fuseEnv(8)
	at := func(name string, dist ...int) expr.Node { return expr.Ref(name).At(grid.Direction(dist)) }
	// Both statements read a@(0,1) and a@(0,-1); naive lowering would load
	// four vectors, fusion needs only two.
	rhsU := expr.Binary{Op: expr.Add, L: at("a", 0, 1), R: at("a", 0, -1)}
	rhsV := expr.Binary{Op: expr.Mul, L: at("a", 0, -1), R: at("a", 0, 1)}
	pr, err := Lower(2, stmts([]string{"u", "v"},
		[]expr.Node{rhsU, rhsV}), env, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := pr.FusedLoads(); got != 2 {
		t.Errorf("fused tape performs %d loads, want 2 (one per shared operand)", got)
	}
}

// TestFusedStoreForwarding: a later statement reading an earlier
// statement's destination at zero distance consumes the stored register
// directly — no load at all for that operand.
func TestFusedStoreForwarding(t *testing.T) {
	env := fuseEnv(8)
	rhsU := expr.Binary{Op: expr.Mul, L: expr.Ref("a"), R: expr.Const(2)}
	rhsV := expr.Binary{Op: expr.Add, L: expr.Ref("u"), R: expr.Ref("a")}
	pr, err := Lower(2, stmts([]string{"u", "v"},
		[]expr.Node{rhsU, rhsV}), env, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Only "a" is ever loaded (once, shared by both statements); the read
	// of u forwards from the store.
	if got := pr.FusedLoads(); got != 1 {
		t.Errorf("fused tape performs %d loads, want 1 (store-to-load forwarded)", got)
	}
}

// fuseCase is a two-statement program over fuseEnv's u and v, judged
// against the closure oracle — expr.Compile'd right-hand sides walked point
// by point (or span by span) with no tape anywhere near them. The tape's
// point walk is a third column, not the reference: it executes the very
// fused tape under test, so agreeing with it proves traversal order, not
// lowering.
type fuseCase struct {
	name       string
	rhsU, rhsV expr.Node
	udvs       []dep.UDV
	want       Path
	// arraySemantics marks a program that is only legal as whole-span array
	// operations (no UDVs declared, a shifted self-read along the span): the
	// span oracle is its reference and the point walk computes something
	// else, legitimately.
	arraySemantics bool
}

func (c fuseCase) run(t *testing.T, n int) {
	t.Helper()
	region := grid.Square(2, 0, n-1)
	loop := dep.Identity(2)
	lower := func(env *expr.MapEnv) *Program {
		pr, err := Lower(2, stmts([]string{"u", "v"},
			[]expr.Node{c.rhsU, c.rhsV}), env, c.udvs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		return pr
	}
	same := func(leg string, got, want *expr.MapEnv) {
		t.Helper()
		for _, name := range []string{"u", "v"} {
			g, w := got.Arrays[name], want.Arrays[name]
			if p, differ := firstBitDiff(region, g, w); differ {
				t.Fatalf("%s: %s at %v: %s %v != closure oracle %v", c.name, name, p, leg, g.At(p), w.At(p))
			}
		}
	}
	oracle := fuseEnv(n)
	closureOracle(oracle, []string{"u", "v"}, []expr.Node{c.rhsU, c.rhsV}, region, loop, c.arraySemantics)

	fused := fuseEnv(n)
	if path := lower(fused).Run(region, loop); path != c.want {
		t.Fatalf("%s: Run took %v, want %v", c.name, path, c.want)
	}
	same("fused "+c.want.String()+" run", fused, oracle)
	if c.arraySemantics {
		return
	}
	points := fuseEnv(n)
	lower(points).RunScalar(region, loop)
	same("point walk", points, oracle)
}

// TestFusedStoreInvalidation: what a store does to the loads cached before
// it. The stored register forwards to a later offset-zero read, which must
// see the NEW value and not a load of the old one made before the store; a
// *shifted* read of the destination must not forward (the stored register
// holds offset-0 values) and must not reuse a load cached before the store
// either. All but the last case fail against the closure oracle when
// loadedValue stops looking at stores; the last pins the path instead — a
// run of length 1 cannot observe a stale shifted load.
func TestFusedStoreInvalidation(t *testing.T) {
	at := func(name string, dist ...int) expr.Node { return expr.Ref(name).At(grid.Direction(dist)) }
	add := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.Add, L: l, R: r} }
	half := func(n expr.Node) expr.Node { return expr.Binary{Op: expr.Mul, L: expr.Const(0.5), R: n} }
	for _, c := range []fuseCase{
		{
			// Statement 1 loads u, then writes it; statement 2's u is the
			// stored value.
			name: "offset-zero re-read over spans",
			rhsU: add(half(expr.Ref("u")), expr.Ref("a")), rhsV: add(expr.Ref("u"), expr.Ref("b")),
			want: PathSpan,
		},
		{
			// The same with a carried dependence: the rows above feed u.
			name: "offset-zero re-read under an outer-carried recurrence",
			rhsU: add(half(expr.Ref("u")), at("u", -1, 0)), rhsV: add(expr.Ref("u"), at("u", -1, 0)),
			udvs: []dep.UDV{udv(1, 0)}, want: PathSpan,
		},
		{
			// Statement 1 reads u@(0,1) then writes u over the span;
			// statement 2 reads u@(0,1) again and must see the new u.
			name: "shifted re-read along the span",
			rhsU: add(at("u", 0, 1), expr.Ref("a")), rhsV: add(at("u", 0, 1), expr.Ref("b")),
			want: PathSpan, arraySemantics: true,
		},
		{
			// Declared as the anti-dependence it is, the same program may
			// not run as spans; point by point both statements read the old
			// u@(0,1), which is what the closure engine computes.
			name: "shifted re-read along the span, dependence declared",
			rhsU: add(at("u", 0, 1), expr.Ref("a")), rhsV: add(at("u", 0, 1), expr.Ref("b")),
			udvs: []dep.UDV{{Kind: dep.Anti, Dist: grid.Direction{0, -1}, Array: "u"}}, want: PathScalar,
		},
	} {
		t.Run(c.name, func(t *testing.T) { c.run(t, 8) })
	}
}

// TestFusedSkewedMultiStatement runs a two-statement recurrence down the
// skewed path against the closure oracle: fusion and skewed addressing
// compose. u is a two-dimensional recurrence (skew required) that also
// reads its own old value; v accumulates the new u at zero distance — the
// store-forwarded register, not the load statement 1 made before storing.
func TestFusedSkewedMultiStatement(t *testing.T) {
	at := func(name string, dist ...int) expr.Node { return expr.Ref(name).At(grid.Direction(dist)) }
	add := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.Add, L: l, R: r} }
	half := func(n expr.Node) expr.Node { return expr.Binary{Op: expr.Mul, L: expr.Const(0.5), R: n} }
	fuseCase{
		name: "skewed two-statement recurrence",
		rhsU: add(add(half(at("u", -1, 0)), half(at("u", 0, -1))), add(half(expr.Ref("u")), expr.Ref("a"))),
		rhsV: add(expr.Ref("u"), expr.Ref("a")),
		udvs: []dep.UDV{udv(1, 0), udv(0, 1)}, want: PathSkewed,
	}.run(t, 10)
}

// TestFusedMulAddOnEveryPath holds the multiply-then-add instructions to the
// closure oracle where the copying tape runs them — along skewed diagonals,
// where every operand is a gathered register — and where the unit-step tape
// does, over spans under an outer-carried recurrence: products of the
// destination's own shifted values feeding sums and differences, the second
// statement consuming the first's value.
func TestFusedMulAddOnEveryPath(t *testing.T) {
	at := func(name string, dist ...int) expr.Node { return expr.Ref(name).At(grid.Direction(dist)) }
	bin := func(o expr.Op, l, r expr.Node) expr.Node { return expr.Binary{Op: o, L: l, R: r} }
	damp := func(n expr.Node) expr.Node { return bin(expr.Mul, expr.Const(0.25), n) }
	for _, c := range []fuseCase{
		{
			name: "skewed: a + b*c, a - b*c and b*imm - a over gathered diagonals",
			rhsU: bin(expr.Add, damp(expr.Ref("a")), bin(expr.Mul, damp(at("u", -1, 0)), at("u", 0, -1))),
			rhsV: bin(expr.Sub, bin(expr.Sub, expr.Ref("u"), bin(expr.Mul, at("v", -1, -1), damp(expr.Ref("b")))),
				bin(expr.Sub, bin(expr.Mul, at("v", 0, -1), expr.Const(0.5)), expr.Ref("a"))),
			udvs: []dep.UDV{udv(1, 0), udv(0, 1), udv(1, 1)}, want: PathSkewed,
		},
		{
			name: "spans: u := u - u@north*a in place, v reads it back",
			rhsU: bin(expr.Sub, expr.Ref("u"), bin(expr.Mul, at("u", -1, 0), damp(expr.Ref("a")))),
			rhsV: bin(expr.Add, expr.Ref("v"), bin(expr.Mul, expr.Ref("u"), damp(at("v", -1, 0)))),
			udvs: []dep.UDV{udv(1, 0)}, want: PathSpan,
		},
	} {
		t.Run(c.name, func(t *testing.T) { c.run(t, 10) })
	}
}
