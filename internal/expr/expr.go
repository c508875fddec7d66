// Package expr provides the expression trees that appear on the right-hand
// side of array statements: constants, scalar references, array references
// with optional @-shift and prime, arithmetic, and a small set of math
// intrinsics. Trees are immutable once built.
//
// Expressions evaluate either directly (Eval, convenient for tests and the
// ZPL interpreter) or after compilation to a per-point closure bound to
// concrete fields (Compile, used by the executors' inner loops).
package expr

import (
	"fmt"
	"math"
	"strings"

	"wavefront/internal/field"
	"wavefront/internal/grid"
)

// Op enumerates binary and unary operators.
type Op int8

const (
	Add Op = iota
	Sub
	Mul
	Div
	Neg // unary
)

func (o Op) String() string {
	switch o {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	case Neg:
		return "-"
	}
	return fmt.Sprintf("Op(%d)", int8(o))
}

// Node is an expression tree node.
type Node interface {
	// Eval computes the node's value at point p in environment env.
	Eval(env Env, p grid.Point) float64
	// String renders ZPL-like source text.
	String() string
}

// Env resolves the names an expression references.
type Env interface {
	// Array returns the field bound to an array name, or nil if unbound.
	Array(name string) *field.Field
	// Scalar returns the value bound to a scalar name.
	Scalar(name string) (float64, bool)
}

// MapEnv is a simple Env backed by maps.
type MapEnv struct {
	Arrays  map[string]*field.Field
	Scalars map[string]float64
}

// Array implements Env.
func (m *MapEnv) Array(name string) *field.Field { return m.Arrays[name] }

// Scalar implements Env.
func (m *MapEnv) Scalar(name string) (float64, bool) {
	v, ok := m.Scalars[name]
	return v, ok
}

// Const is a floating-point literal.
type Const float64

// Eval implements Node.
func (c Const) Eval(Env, grid.Point) float64 { return float64(c) }

func (c Const) String() string {
	return strings.TrimSuffix(fmt.Sprintf("%g", float64(c)), ".0")
}

// Scalar references a scalar variable by name.
type Scalar string

// Eval implements Node.
func (s Scalar) Eval(env Env, _ grid.Point) float64 {
	v, ok := env.Scalar(string(s))
	if !ok {
		panic(fmt.Sprintf("expr: unbound scalar %q", string(s)))
	}
	return v
}

func (s Scalar) String() string { return string(s) }

// ArrayRef is a reference to array Name, optionally shifted by Shift (the
// @-operator) and optionally primed. A nil Shift means no shift.
type ArrayRef struct {
	Name   string
	Shift  grid.Direction
	Primed bool
	// ShiftName, if nonempty, is the declared direction name used for
	// printing (e.g. "north").
	ShiftName string
}

// Ref builds an unshifted, unprimed reference.
func Ref(name string) ArrayRef { return ArrayRef{Name: name} }

// At returns the reference shifted by d.
func (a ArrayRef) At(d grid.Direction) ArrayRef {
	a.Shift = d
	a.ShiftName = ""
	return a
}

// AtNamed returns the reference shifted by d, remembering the direction's
// declared name for printing.
func (a ArrayRef) AtNamed(name string, d grid.Direction) ArrayRef {
	a.Shift = d
	a.ShiftName = name
	return a
}

// Prime returns the primed version of the reference.
func (a ArrayRef) Prime() ArrayRef {
	a.Primed = true
	return a
}

// Shifted reports whether the reference carries a nonzero shift.
func (a ArrayRef) Shifted() bool {
	return a.Shift != nil && !a.Shift.Zero()
}

// Target returns the point the reference reads when the covering region
// supplies point p.
func (a ArrayRef) Target(p grid.Point) grid.Point {
	if a.Shift == nil {
		return p
	}
	q := make(grid.Point, len(p))
	for i := range p {
		q[i] = p[i] + a.Shift[i]
	}
	return q
}

// Eval implements Node.
func (a ArrayRef) Eval(env Env, p grid.Point) float64 {
	f := env.Array(a.Name)
	if f == nil {
		panic(fmt.Sprintf("expr: unbound array %q", a.Name))
	}
	if a.Shift == nil {
		return f.At(p)
	}
	return f.At(a.Target(p))
}

func (a ArrayRef) String() string {
	s := a.Name
	if a.Primed {
		s += "'"
	}
	if a.Shifted() {
		if a.ShiftName != "" {
			s += "@" + a.ShiftName
		} else {
			s += "@" + a.Shift.String()
		}
	}
	return s
}

// Assign is one array assignment, LHS := RHS: a statement of a scan block
// (scan.Stmt) and what the kernel lowerer reads of one.
type Assign struct {
	LHS ArrayRef
	RHS Node
}

func (s Assign) String() string {
	return fmt.Sprintf("%s := %s;", s.LHS, s.RHS)
}

// Unary applies a unary operator.
type Unary struct {
	Op Op
	X  Node
}

// Eval implements Node.
func (u Unary) Eval(env Env, p grid.Point) float64 {
	v := u.X.Eval(env, p)
	if u.Op == Neg {
		return -v
	}
	panic(fmt.Sprintf("expr: bad unary op %v", u.Op))
}

func (u Unary) String() string { return fmt.Sprintf("(-%s)", u.X) }

// Binary applies a binary operator.
type Binary struct {
	Op   Op
	L, R Node
}

// Eval implements Node.
func (b Binary) Eval(env Env, p grid.Point) float64 {
	l, r := b.L.Eval(env, p), b.R.Eval(env, p)
	switch b.Op {
	case Add:
		return l + r
	case Sub:
		return l - r
	case Mul:
		return l * r
	case Div:
		return l / r
	}
	panic(fmt.Sprintf("expr: bad binary op %v", b.Op))
}

func (b Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// Intrinsic names a built-in math function.
type Intrinsic string

// The supported intrinsics.
const (
	Sqrt Intrinsic = "sqrt"
	Abs  Intrinsic = "abs"
	Exp  Intrinsic = "exp"
	Log  Intrinsic = "log"
	Min  Intrinsic = "min"
	Max  Intrinsic = "max"
	Pow  Intrinsic = "pow"
)

// Arity returns the argument count of the intrinsic, or -1 if unknown.
func (in Intrinsic) Arity() int {
	switch in {
	case Sqrt, Abs, Exp, Log:
		return 1
	case Min, Max, Pow:
		return 2
	}
	return -1
}

// Call invokes an intrinsic.
type Call struct {
	Fn   Intrinsic
	Args []Node
}

// Eval implements Node.
func (c Call) Eval(env Env, p grid.Point) float64 {
	x, y := c.Args[0].Eval(env, p), 0.0
	if c.Fn.Arity() == 2 {
		y = c.Args[1].Eval(env, p)
	}
	return c.Fn.Apply(x, y)
}

// Apply evaluates the intrinsic on plain values, the way Eval does; y is
// ignored by the one-argument functions.
func (in Intrinsic) Apply(x, y float64) float64 {
	switch in {
	case Sqrt:
		return math.Sqrt(x)
	case Abs:
		return math.Abs(x)
	case Exp:
		return math.Exp(x)
	case Log:
		return math.Log(x)
	case Min:
		return math.Min(x, y)
	case Max:
		return math.Max(x, y)
	case Pow:
		return math.Pow(x, y)
	}
	panic(fmt.Sprintf("expr: unknown intrinsic %q", in))
}

func (c Call) String() string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", c.Fn, strings.Join(args, ", "))
}

// Convenience constructors.

// AddN folds terms with +. It panics on an empty argument list.
func AddN(terms ...Node) Node { return fold(Add, terms) }

// MulN folds terms with *.
func MulN(terms ...Node) Node { return fold(Mul, terms) }

func fold(op Op, terms []Node) Node {
	if len(terms) == 0 {
		panic("expr: fold of no terms")
	}
	n := terms[0]
	for _, t := range terms[1:] {
		n = Binary{Op: op, L: n, R: t}
	}
	return n
}

// Walk calls fn on every node of the tree, parents before children, left
// to right — the order Refs and Scalars collect in. It hands fn the nodes as
// the tree holds them, so a walk boxes nothing.
func Walk(n Node, fn func(Node)) {
	fn(n)
	switch t := n.(type) {
	case Unary:
		Walk(t.X, fn)
	case Binary:
		Walk(t.L, fn)
		Walk(t.R, fn)
	case Call:
		for _, a := range t.Args {
			Walk(a, fn)
		}
	}
}

// Refs collects every array reference in the tree, in visit order.
func Refs(n Node) []ArrayRef {
	var out []ArrayRef
	Walk(n, func(m Node) {
		if r, ok := m.(ArrayRef); ok {
			out = append(out, r)
		}
	})
	return out
}

// Scalars collects every scalar name referenced in the tree.
func Scalars(n Node) []string {
	var out []string
	seen := map[string]bool{}
	Walk(n, func(m Node) {
		if s, ok := m.(Scalar); ok && !seen[string(s)] {
			seen[string(s)] = true
			out = append(out, string(s))
		}
	})
	return out
}

// Validate checks rank consistency of all shifts in the tree and that every
// referenced name is bound in env (scalars may be bound lazily and are not
// checked). rank is the rank of the covering region.
func Validate(n Node, rank int, env Env) error {
	var err error
	Walk(n, func(m Node) {
		if err != nil {
			return
		}
		if r, ok := m.(ArrayRef); ok {
			if r.Shift != nil && len(r.Shift) != rank {
				err = fmt.Errorf("expr: reference %s: direction rank %d != region rank %d", r, len(r.Shift), rank)
				return
			}
			if env != nil && env.Array(r.Name) == nil {
				err = fmt.Errorf("expr: reference %s: array %q is unbound", r, r.Name)
			}
		}
		if c, ok := m.(Call); ok {
			if want := c.Fn.Arity(); want >= 0 && len(c.Args) != want {
				err = fmt.Errorf("expr: %s takes %d arguments, got %d", c.Fn, want, len(c.Args))
			}
		}
	})
	return err
}

// Equal reports whether two trees are structurally identical: same node
// types, operators, names, shifts (a nil shift differs from an all-zero
// one), primes and shift names, and constants with the same bit pattern. It
// does not allocate, so a cache of compiled operands — expression nodes hold
// slices and cannot be map keys — can match through it on a hot path.
func Equal(a, b Node) bool {
	switch x := a.(type) {
	case Const:
		y, ok := b.(Const)
		return ok && math.Float64bits(float64(x)) == math.Float64bits(float64(y))
	case Scalar:
		y, ok := b.(Scalar)
		return ok && x == y
	case ArrayRef:
		y, ok := b.(ArrayRef)
		if !ok || x.Name != y.Name || x.Primed != y.Primed || x.ShiftName != y.ShiftName ||
			(x.Shift == nil) != (y.Shift == nil) || len(x.Shift) != len(y.Shift) {
			return false
		}
		for i := range x.Shift {
			if x.Shift[i] != y.Shift[i] {
				return false
			}
		}
		return true
	case Unary:
		y, ok := b.(Unary)
		return ok && x.Op == y.Op && Equal(x.X, y.X)
	case Binary:
		y, ok := b.(Binary)
		return ok && x.Op == y.Op && Equal(x.L, y.L) && Equal(x.R, y.R)
	case Call:
		y, ok := b.(Call)
		if !ok || x.Fn != y.Fn || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !Equal(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	}
	return false
}
