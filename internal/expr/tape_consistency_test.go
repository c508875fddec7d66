package expr_test

import (
	"math"
	"testing"

	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/kernel"
)

// TestTapeAgreesWithEvalCompile is the tape leg of the engine-consistency
// suite: the same operator/intrinsic table as TestEvalCompileAgree,
// lowered to the tape and run over spans and with spans ruled out, must reproduce
// the closure engines bit for bit at every point. It lives in the external
// test package because internal/kernel imports expr.
func TestTapeAgreesWithEvalCompile(t *testing.T) {
	bounds := grid.Square(2, 0, 7)
	env := &expr.MapEnv{
		Arrays: map[string]*field.Field{
			"a":   field.MustNew("a", bounds, field.RowMajor),
			"b":   field.MustNew("b", bounds, field.ColMajor),
			"dst": field.MustNew("dst", bounds, field.RowMajor),
		},
		Scalars: map[string]float64{"s": 1.75, "t": -0.5},
	}
	env.Arrays["a"].FillFunc(bounds, func(p grid.Point) float64 {
		return 1.2 + 0.31*float64(p[0]) + 0.07*float64(p[1])
	})
	env.Arrays["b"].FillFunc(bounds, func(p grid.Point) float64 {
		return 2.5 - 0.11*float64(p[0]*p[1])
	})

	nodes := []expr.Node{
		expr.Const(3.25),
		expr.Scalar("s"),
		expr.Ref("a"),
		expr.Ref("b").At(grid.North),
		expr.Ref("a").At(grid.Direction{2, -1}),
		expr.Ref("a").AtNamed("se", grid.SE).Prime(),
		expr.Unary{Op: expr.Neg, X: expr.Ref("a")},
		expr.Binary{Op: expr.Add, L: expr.Ref("a"), R: expr.Ref("b")},
		expr.Binary{Op: expr.Sub, L: expr.Ref("a"), R: expr.Scalar("t")},
		expr.Binary{Op: expr.Mul, L: expr.Ref("a").At(grid.West), R: expr.Ref("b").At(grid.East)},
		expr.Binary{Op: expr.Div, L: expr.Const(1), R: expr.Ref("b")},
		expr.Call{Fn: expr.Sqrt, Args: []expr.Node{expr.Ref("a")}},
		expr.Call{Fn: expr.Abs, Args: []expr.Node{expr.Unary{Op: expr.Neg, X: expr.Ref("b")}}},
		expr.Call{Fn: expr.Exp, Args: []expr.Node{expr.Scalar("t")}},
		expr.Call{Fn: expr.Log, Args: []expr.Node{expr.Ref("a")}},
		expr.Call{Fn: expr.Min, Args: []expr.Node{expr.Ref("a"), expr.Ref("b")}},
		expr.Call{Fn: expr.Max, Args: []expr.Node{expr.Ref("a"), expr.Const(2)}},
		expr.Call{Fn: expr.Pow, Args: []expr.Node{expr.Ref("a"), expr.Const(1.5)}},
		expr.AddN(expr.Ref("a"), expr.Ref("b"), expr.Const(1), expr.Scalar("s")),
		expr.MulN(expr.Ref("a"), expr.Scalar("s"), expr.Call{Fn: expr.Sqrt, Args: []expr.Node{expr.Ref("b")}}),
	}
	inner := grid.Square(2, 2, 5)
	dst := env.Arrays["dst"]
	for _, n := range nodes {
		c, err := expr.Compile(n, env)
		if err != nil {
			t.Fatalf("%s: Compile: %v", n, err)
		}
		// Spans (no UDVs: every dimension legal) and no spans (a
		// dependence along each dimension disqualifies them everywhere).
		for _, scalar := range []bool{false, true} {
			var udvs []dep.UDV
			if scalar {
				udvs = []dep.UDV{
					{Kind: dep.True, Dist: grid.Direction{1, 0}},
					{Kind: dep.True, Dist: grid.Direction{0, 1}},
				}
			}
			prog, err := kernel.Lower(2, []expr.Assign{{LHS: expr.Ref("dst"), RHS: n}}, env, udvs)
			if err != nil {
				t.Fatalf("%s: Lower: %v", n, err)
			}
			dst.Fill(0)
			prog.Run(inner, dep.Identity(2))
			inner.Each(nil, func(p grid.Point) {
				want := c(p)
				if got := dst.At(p); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s at %v (scalar=%v): tape %g != Compile %g", n, p, scalar, got, want)
				}
				if ev := n.Eval(env, p); ev != want && !(math.IsNaN(ev) && math.IsNaN(want)) {
					t.Fatalf("%s at %v: Eval %g != Compile %g", n, p, ev, want)
				}
			})
		}
	}
}
