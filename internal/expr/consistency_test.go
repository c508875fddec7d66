package expr

import (
	"math"
	"strings"
	"testing"

	"wavefront/internal/field"
	"wavefront/internal/grid"
)

// TestEvalCompileAgree runs every operator and intrinsic through the two
// evaluation paths of this package — tree walking and compilation — and
// requires bit-identical results at every point.
func TestEvalCompileAgree(t *testing.T) {
	bounds := grid.Square(2, 0, 7)
	env := &MapEnv{
		Arrays: map[string]*field.Field{
			"a": field.MustNew("a", bounds, field.RowMajor),
			"b": field.MustNew("b", bounds, field.ColMajor),
		},
		Scalars: map[string]float64{"s": 1.75, "t": -0.5},
	}
	env.Arrays["a"].FillFunc(bounds, func(p grid.Point) float64 {
		return 1.2 + 0.31*float64(p[0]) + 0.07*float64(p[1])
	})
	env.Arrays["b"].FillFunc(bounds, func(p grid.Point) float64 {
		return 2.5 - 0.11*float64(p[0]*p[1])
	})

	nodes := []Node{
		Const(3.25),
		Scalar("s"),
		Ref("a"),
		Ref("b").At(grid.North),
		Ref("a").At(grid.Direction{2, -1}),
		Ref("a").AtNamed("se", grid.SE).Prime(),
		Unary{Op: Neg, X: Ref("a")},
		Binary{Op: Add, L: Ref("a"), R: Ref("b")},
		Binary{Op: Sub, L: Ref("a"), R: Scalar("t")},
		Binary{Op: Mul, L: Ref("a").At(grid.West), R: Ref("b").At(grid.East)},
		Binary{Op: Div, L: Const(1), R: Ref("b")},
		Call{Fn: Sqrt, Args: []Node{Ref("a")}},
		Call{Fn: Abs, Args: []Node{Unary{Op: Neg, X: Ref("b")}}},
		Call{Fn: Exp, Args: []Node{Scalar("t")}},
		Call{Fn: Log, Args: []Node{Ref("a")}},
		Call{Fn: Min, Args: []Node{Ref("a"), Ref("b")}},
		Call{Fn: Max, Args: []Node{Ref("a"), Const(2)}},
		Call{Fn: Pow, Args: []Node{Ref("a"), Const(1.5)}},
		AddN(Ref("a"), Ref("b"), Const(1), Scalar("s")),
		MulN(Ref("a"), Scalar("s"), Call{Fn: Sqrt, Args: []Node{Ref("b")}}),
	}
	inner := grid.Square(2, 2, 5)
	for _, n := range nodes {
		c, err := Compile(n, env)
		if err != nil {
			t.Fatalf("%s: Compile: %v", n, err)
		}
		inner.Each(nil, func(p grid.Point) {
			want := n.Eval(env, p)
			if got := c(p); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%s at %v: Compile %g != Eval %g", n, p, got, want)
			}
		})
	}
}

func TestEvalPanicsOnUnbound(t *testing.T) {
	env := &MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{}}
	for _, n := range []Node{Ref("zz"), Scalar("zz")} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Eval of unbound name must panic", n)
				}
			}()
			n.Eval(env, grid.Point{0, 0})
		}()
	}
}

func TestCompileGenericRank3(t *testing.T) {
	bounds := grid.Square(3, 0, 4)
	env := &MapEnv{Arrays: map[string]*field.Field{
		"v": field.MustNew("v", bounds, field.RowMajor),
	}, Scalars: map[string]float64{}}
	env.Arrays["v"].FillFunc(bounds, func(p grid.Point) float64 {
		return float64(p[0]*100 + p[1]*10 + p[2])
	})
	n := Binary{Op: Add,
		L: Ref("v").At(grid.Direction{-1, 0, 1}),
		R: Const(0.5)}
	c, err := Compile(n, env)
	if err != nil {
		t.Fatal(err)
	}
	p := grid.Point{2, 2, 2}
	if got, want := c(p), 123.5; got != want {
		t.Errorf("rank-3 compile = %g, want %g", got, want)
	}
}

func TestUnaryStringAndBadOps(t *testing.T) {
	u := Unary{Op: Neg, X: Const(2)}
	if !strings.Contains(u.String(), "-") {
		t.Errorf("Unary.String() = %q", u.String())
	}
	bad := Unary{Op: Add, X: Const(1)}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad unary op must panic in Eval")
			}
		}()
		bad.Eval(&MapEnv{}, nil)
	}()
	if _, err := Compile(bad, &MapEnv{}); err == nil {
		t.Error("bad unary op must fail to compile")
	}
	env := &MapEnv{Arrays: map[string]*field.Field{
		"a": field.MustNew("a", grid.Square(2, 0, 2), field.RowMajor),
	}}
	if _, err := Compile(Unary{Op: Mul, X: Ref("a")}, env); err == nil {
		t.Error("bad unary op over a bound array must fail to compile")
	}
}

func TestIntrinsicArity(t *testing.T) {
	if Sqrt.Arity() != 1 || Min.Arity() != 2 || Intrinsic("nope").Arity() != -1 {
		t.Error("arity table wrong")
	}
}
