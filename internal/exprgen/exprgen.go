// Package exprgen draws random statement right-hand sides over four arrays
// and the environment they run in. It is the one generator behind the
// property tests that hold the tape (internal/kernel) and prepared blocks
// (internal/scan) to the closure oracle; only tests import it.
package exprgen

import (
	"math/rand"

	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
)

// Names are the generator's arrays.
var Names = []string{"a", "b", "c", "d"}

// Env binds the generator arrays over bounds with the given layouts,
// filled from seed.
func Env(bounds grid.Region, layouts []field.Layout, seed int64) *expr.MapEnv {
	rng := rand.New(rand.NewSource(seed))
	env := &expr.MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{"s": 1.25}}
	for i, name := range Names {
		f := field.MustNew(name, bounds, layouts[i])
		f.FillFunc(bounds, func(grid.Point) float64 { return 0.5 + rng.Float64() })
		env.Arrays[name] = f
	}
	return env
}

// StmtRHS draws a damped right-hand side: two to four references to the
// generator arrays — often the destination itself, often shifted by ±1
// along any dimension, the span dimension included — combined with random
// arithmetic, products feeding sums and differences among it: every
// multiply-then-add form, with the destination at a north/south/west/east
// or diagonal shift for a multiplicand, and often (a := a − a@shift·…) with
// the whole statement written in place over it.
func StmtRHS(rng *rand.Rand, rank int, lhs string) expr.Node {
	unit := func() int { return 1 - 2*rng.Intn(2) }
	ref := func() expr.Node {
		name := Names[rng.Intn(len(Names))]
		if rng.Intn(3) == 0 {
			name = lhs
		}
		r := expr.Ref(name)
		if rng.Intn(2) == 0 {
			shift := make(grid.Direction, rank)
			shift[rng.Intn(rank)] = unit()
			if rng.Intn(4) == 0 {
				shift[rank-1] = unit()
			}
			r = r.At(shift)
		}
		return r
	}
	selfShift := func() expr.Node {
		shift := make(grid.Direction, rank)
		shift[rng.Intn(rank)] = unit()
		if rng.Intn(3) == 0 {
			shift[rng.Intn(rank)] = unit() // a diagonal, two times in three
		}
		return expr.Ref(lhs).At(shift)
	}
	mul := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.Mul, L: l, R: r} }
	n := ref()
	for k := 1 + rng.Intn(3); k > 0; k-- {
		switch rng.Intn(8) {
		case 0:
			n = expr.Binary{Op: expr.Sub, L: n, R: expr.MulN(expr.Const(0.25), ref())}
		case 1:
			n = expr.Call{Fn: expr.Max, Args: []expr.Node{n, ref()}}
		case 2:
			n = expr.Binary{Op: expr.Div, L: ref(), R: expr.Binary{Op: expr.Add, L: expr.Scalar("s"), R: expr.Call{Fn: expr.Abs, Args: []expr.Node{n}}}}
		case 3:
			n = expr.Binary{Op: expr.Sub, L: expr.Ref(lhs), R: mul(selfShift(), expr.MulN(expr.Const(0.5), n))}
		case 4:
			n = expr.Binary{Op: expr.Add, L: expr.MulN(expr.Const(0.5), n), R: mul(ref(), selfShift())}
		case 5:
			n = expr.Binary{Op: expr.Add, L: expr.MulN(expr.Const(0.5), n),
				R: expr.Binary{Op: expr.Sub, L: mul(selfShift(), expr.Const(0.25)), R: ref()}}
		default:
			n = expr.Binary{Op: expr.Add, L: expr.MulN(expr.Const(0.5), n), R: expr.MulN(expr.Const(0.25), ref())}
		}
	}
	return n
}
