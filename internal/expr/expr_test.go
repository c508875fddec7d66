package expr

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"wavefront/internal/field"
	"wavefront/internal/grid"
)

func newEnv(bounds grid.Region) *MapEnv {
	return &MapEnv{
		Arrays: map[string]*field.Field{
			"a": field.MustNew("a", bounds, field.RowMajor),
			"b": field.MustNew("b", bounds, field.RowMajor),
		},
		Scalars: map[string]float64{"s": 2.5},
	}
}

func TestEvalArithmetic(t *testing.T) {
	bounds := grid.Square(2, 0, 4)
	env := newEnv(bounds)
	env.Arrays["a"].Fill(3)
	env.Arrays["b"].Fill(4)
	p := grid.Point{2, 2}

	cases := []struct {
		node Node
		want float64
	}{
		{Const(7), 7},
		{Scalar("s"), 2.5},
		{Ref("a"), 3},
		{Binary{Op: Add, L: Ref("a"), R: Ref("b")}, 7},
		{Binary{Op: Sub, L: Ref("a"), R: Ref("b")}, -1},
		{Binary{Op: Mul, L: Ref("a"), R: Ref("b")}, 12},
		{Binary{Op: Div, L: Ref("b"), R: Ref("a")}, 4.0 / 3.0},
		{Unary{Op: Neg, X: Ref("a")}, -3},
		{Call{Fn: Sqrt, Args: []Node{Ref("b")}}, 2},
		{Call{Fn: Abs, Args: []Node{Unary{Op: Neg, X: Ref("a")}}}, 3},
		{Call{Fn: Min, Args: []Node{Ref("a"), Ref("b")}}, 3},
		{Call{Fn: Max, Args: []Node{Ref("a"), Ref("b")}}, 4},
		{Call{Fn: Pow, Args: []Node{Ref("a"), Const(2)}}, 9},
		{AddN(Const(1), Const(2), Const(3)), 6},
		{MulN(Const(2), Const(3), Const(4)), 24},
	}
	for _, c := range cases {
		if got := c.node.Eval(env, p); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("%s = %g, want %g", c.node, got, c.want)
		}
	}
}

func TestShiftEval(t *testing.T) {
	bounds := grid.Square(2, 0, 4)
	env := newEnv(bounds)
	env.Arrays["a"].FillFunc(bounds, func(p grid.Point) float64 {
		return float64(p[0]*10 + p[1])
	})
	p := grid.Point{2, 2}
	if got := Ref("a").At(grid.North).Eval(env, p); got != 12 {
		t.Errorf("a@north at (2,2) = %g, want 12", got)
	}
	if got := Ref("a").At(grid.Direction{2, -1}).Eval(env, p); got != 41 {
		t.Errorf("a@(2,-1) at (2,2) = %g, want 41", got)
	}
}

// TestCompileMatchesEval: compiled closures must agree with tree-walking
// evaluation.
func TestCompileMatchesEval(t *testing.T) {
	bounds := grid.Square(2, 0, 6)
	env := newEnv(bounds)
	env.Arrays["a"].FillFunc(bounds, func(p grid.Point) float64 {
		return 1 + 0.1*float64(p[0]) + 0.01*float64(p[1])
	})
	env.Arrays["b"].FillFunc(bounds, func(p grid.Point) float64 {
		return 2 + 0.2*float64(p[0]*p[1])
	})
	node := Binary{Op: Add,
		L: Binary{Op: Mul, L: Ref("a").At(grid.North), R: Scalar("s")},
		R: Call{Fn: Sqrt, Args: []Node{Binary{Op: Add, L: Ref("b"), R: Const(1)}}},
	}
	c, err := Compile(node, env)
	if err != nil {
		t.Fatal(err)
	}
	inner := grid.Square(2, 1, 6)
	inner.Each(nil, func(p grid.Point) {
		want := node.Eval(env, p)
		if got := c(p); got != want {
			t.Fatalf("Compile at %v: %g != %g", p, got, want)
		}
	})
}

func TestCompileErrors(t *testing.T) {
	bounds := grid.Square(2, 0, 4)
	env := newEnv(bounds)
	if _, err := Compile(Ref("zz"), env); err == nil {
		t.Error("unbound array must fail")
	}
	if _, err := Compile(Scalar("zz"), env); err == nil {
		t.Error("unbound scalar must fail")
	}
	if _, err := Compile(Call{Fn: "gamma", Args: []Node{Const(1)}}, env); err == nil {
		t.Error("unknown intrinsic must fail")
	}
	for _, c := range []struct {
		call Call
		want string
	}{
		{Call{Fn: Sqrt, Args: nil}, "sqrt takes 1 arguments, got 0"},
		{Call{Fn: Abs, Args: []Node{Const(1), Const(2)}}, "abs takes 1 arguments, got 2"},
		{Call{Fn: Min, Args: []Node{Const(1)}}, "min takes 2 arguments, got 1"},
		{Call{Fn: Pow, Args: []Node{Const(1), Const(2), Const(3)}}, "pow takes 2 arguments, got 3"},
	} {
		if _, err := Compile(c.call, env); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Compile(%s) = %v, want an error saying %q", c.call, err, c.want)
		}
	}
}

func TestRefs(t *testing.T) {
	node := Binary{Op: Add,
		L: Ref("a").At(grid.North).Prime(),
		R: Binary{Op: Mul, L: Ref("b"), R: Ref("a")},
	}
	refs := Refs(node)
	if len(refs) != 3 {
		t.Fatalf("found %d refs", len(refs))
	}
	if !refs[0].Primed || refs[0].Name != "a" {
		t.Errorf("first ref = %+v", refs[0])
	}
	if refs[1].Name != "b" || refs[1].Primed {
		t.Errorf("second ref = %+v", refs[1])
	}
}

func TestScalars(t *testing.T) {
	node := AddN(Scalar("x"), Scalar("y"), Scalar("x"))
	got := Scalars(node)
	if len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("scalars = %v", got)
	}
}

func TestValidate(t *testing.T) {
	bounds := grid.Square(2, 0, 4)
	env := newEnv(bounds)
	good := Binary{Op: Add, L: Ref("a").At(grid.North), R: Const(1)}
	if err := Validate(good, 2, env); err != nil {
		t.Errorf("valid expr rejected: %v", err)
	}
	badRank := Ref("a").At(grid.Direction{1})
	if err := Validate(badRank, 2, env); err == nil {
		t.Error("rank-mismatched shift must fail")
	}
	unbound := Ref("zz")
	if err := Validate(unbound, 2, env); err == nil {
		t.Error("unbound array must fail validation with env")
	}
	badArity := Call{Fn: Min, Args: []Node{Const(1)}}
	if err := Validate(badArity, 2, nil); err == nil {
		t.Error("wrong intrinsic arity must fail")
	}
}

func TestString(t *testing.T) {
	node := Binary{Op: Sub, L: Ref("rx"),
		R: Binary{Op: Mul, L: Ref("rx").AtNamed("north", grid.North).Prime(), R: Ref("r")}}
	s := node.String()
	if !strings.Contains(s, "rx'@north") {
		t.Errorf("String() = %q, want primed named shift", s)
	}
}

func TestRefBuildersDoNotMutate(t *testing.T) {
	base := Ref("a")
	shifted := base.At(grid.North)
	primed := shifted.Prime()
	if base.Shift != nil || base.Primed {
		t.Error("builders must not mutate the receiver")
	}
	if !shifted.Shifted() || shifted.Primed {
		t.Error("At must shift only")
	}
	if !primed.Primed || !primed.Shifted() {
		t.Error("Prime must preserve the shift")
	}
}

func TestConstStringRoundTrip(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		env := &MapEnv{}
		return Const(v).Eval(env, nil) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
