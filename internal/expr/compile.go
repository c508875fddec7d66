package expr

import (
	"fmt"
	"math"

	"wavefront/internal/grid"
)

// Compiled is an expression specialized to a fixed set of fields and scalar
// values: evaluation no longer performs name lookups or interface calls per
// node visit beyond one closure call per node.
type Compiled func(p grid.Point) float64

// Compile specializes the tree against env. Every array reference must be
// bound; scalar values are captured at compile time, so scalars that change
// between executions require recompilation (the executors recompile per
// run, which is cheap).
func Compile(n Node, env Env) (Compiled, error) {
	switch t := n.(type) {
	case Const:
		v := float64(t)
		return func(grid.Point) float64 { return v }, nil
	case Scalar:
		v, ok := env.Scalar(string(t))
		if !ok {
			return nil, fmt.Errorf("expr: unbound scalar %q", string(t))
		}
		return func(grid.Point) float64 { return v }, nil
	case ArrayRef:
		f := env.Array(t.Name)
		if f == nil {
			return nil, fmt.Errorf("expr: unbound array %q", t.Name)
		}
		if t.Shift == nil || t.Shift.Zero() {
			return func(p grid.Point) float64 { return f.At(p) }, nil
		}
		// Fold the shift into a constant flat-offset delta so evaluation
		// never builds a shifted point. Indexing is computed from the raw
		// strides rather than Field.Index: p itself may lie outside the
		// field's bounds as long as p+shift is inside (the executors bound-
		// check the shifted region up front), and Index would reject it.
		data := f.Data()
		rank := f.Rank()
		if len(t.Shift) != rank {
			return nil, fmt.Errorf("expr: reference %s has shift rank %d, field rank %d", t, len(t.Shift), rank)
		}
		strides := make([]int, rank)
		off0 := 0
		for d := 0; d < rank; d++ {
			strides[d] = f.Stride(d)
			off0 += (t.Shift[d] - f.Bounds().Dim(d).Lo) * strides[d]
		}
		return func(p grid.Point) float64 {
			off := off0
			for d, x := range p {
				off += x * strides[d]
			}
			return data[off]
		}, nil
	case Unary:
		x, err := Compile(t.X, env)
		if err != nil {
			return nil, err
		}
		if t.Op != Neg {
			return nil, fmt.Errorf("expr: bad unary op %v", t.Op)
		}
		return func(p grid.Point) float64 { return -x(p) }, nil
	case Binary:
		l, err := Compile(t.L, env)
		if err != nil {
			return nil, err
		}
		r, err := Compile(t.R, env)
		if err != nil {
			return nil, err
		}
		switch t.Op {
		case Add:
			return func(p grid.Point) float64 { return l(p) + r(p) }, nil
		case Sub:
			return func(p grid.Point) float64 { return l(p) - r(p) }, nil
		case Mul:
			return func(p grid.Point) float64 { return l(p) * r(p) }, nil
		case Div:
			return func(p grid.Point) float64 { return l(p) / r(p) }, nil
		}
		return nil, fmt.Errorf("expr: bad binary op %v", t.Op)
	case Call:
		args := make([]Compiled, len(t.Args))
		for i, a := range t.Args {
			c, err := Compile(a, env)
			if err != nil {
				return nil, err
			}
			args[i] = c
		}
		if want := t.Fn.Arity(); want < 0 {
			return nil, fmt.Errorf("expr: unknown intrinsic %q", t.Fn)
		} else if len(args) != want {
			return nil, fmt.Errorf("expr: %s takes %d arguments, got %d", t.Fn, want, len(args))
		}
		return compileCall(t.Fn, args), nil
	}
	return nil, fmt.Errorf("expr: unknown node type %T", n)
}

func compileCall(fn Intrinsic, args []Compiled) Compiled {
	switch fn {
	case Sqrt:
		return func(p grid.Point) float64 { return math.Sqrt(args[0](p)) }
	case Abs:
		return func(p grid.Point) float64 { return math.Abs(args[0](p)) }
	case Exp:
		return func(p grid.Point) float64 { return math.Exp(args[0](p)) }
	case Log:
		return func(p grid.Point) float64 { return math.Log(args[0](p)) }
	case Min:
		return func(p grid.Point) float64 { return Minf(args[0](p), args[1](p)) }
	case Max:
		return func(p grid.Point) float64 { return Maxf(args[0](p), args[1](p)) }
	case Pow:
		return func(p grid.Point) float64 { return math.Pow(args[0](p), args[1](p)) }
	}
	panic("unreachable")
}
