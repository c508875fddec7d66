package scan

import (
	"fmt"
	"math"

	"wavefront/internal/bufpool"
	"wavefront/internal/expr"
	"wavefront/internal/grid"
	"wavefront/internal/kernel"
)

// Reductions are ZPL's parallel fold operators (+<<, max<<, min<<). The
// paper's legality condition (v) requires that parallel operators' operands
// other than the shift operator may not be primed, because they are pulled
// out of scan blocks during compilation; Reduce enforces that and evaluates
// the fold directly. Parallel reductions combine per-rank partial results
// through comm.AllReduce (see pipeline.Rank.Reduce).

// ReduceOp selects the fold.
type ReduceOp int8

// The supported reductions.
const (
	SumReduce ReduceOp = iota
	MaxReduce
	MinReduce
)

func (op ReduceOp) String() string {
	switch op {
	case SumReduce:
		return "+<<"
	case MaxReduce:
		return "max<<"
	case MinReduce:
		return "min<<"
	}
	return fmt.Sprintf("ReduceOp(%d)", int8(op))
}

// Identity returns the fold's neutral element.
func (op ReduceOp) Identity() float64 {
	switch op {
	case SumReduce:
		return 0
	case MaxReduce:
		return math.Inf(-1)
	case MinReduce:
		return math.Inf(1)
	}
	panic(fmt.Sprintf("scan: bad reduce op %d", int8(op)))
}

// Combine folds one value into an accumulator.
func (op ReduceOp) Combine(acc, v float64) float64 {
	switch op {
	case SumReduce:
		return acc + v
	case MaxReduce:
		if v > acc {
			return v
		}
		return acc
	case MinReduce:
		if v < acc {
			return v
		}
		return acc
	}
	panic(fmt.Sprintf("scan: bad reduce op %d", int8(op)))
}

// Reduce folds the expression over the region. Legality condition (v):
// the operand may not contain primed references.
func Reduce(op ReduceOp, region grid.Region, node expr.Node, env expr.Env) (float64, error) {
	return NewReducer(node, env).Reduce(op, region)
}

// minReduceTape is the region size, in points, from which a first fold
// lowers its operand to a span tape: a rule for a program that may run
// only once. A one-shot max<<(|a|,|b|) breaks even in
// time near 64 points (lowering ≈ 3 µs against ≈ 35 ns per point of closure
// walk), but lowering also leaves ≈ 20 more allocations and 2 KB behind
// than compiling the closure does; at 512 points the time saved is well
// over twice the lowering, so the garbage is paid for. A Reducer that has
// folded before is past that argument — the lowering amortizes over the
// folds to come — and takes the tape at any span.
const minReduceTape = 512

// Reducer is a reduction operand bound to an environment, for folding more
// than once: the reference list, the legality and bounds verdict for the
// last region, and the lowered tape or compiled closure are kept between
// calls. Scalars are captured when the operand is lowered or compiled, as
// everywhere else; a Reducer notices a captured scalar's value changing and
// captures again. It is not safe for concurrent use.
type Reducer struct {
	node expr.Node
	env  expr.Env
	refs []expr.ArrayRef
	// scalars are the operand's scalar names and the values the current
	// tape and closure captured.
	scalars Captured
	// region is the last region that passed check; checked says there is one.
	region  grid.Region
	checked bool
	// warm says a fold has completed: this is not the operand's only one.
	warm bool
	// tape is the operand on the span tape: nil until a fold is worth
	// lowering for, and for good once refused says it does not lower.
	tape    *kernel.Expr
	refused bool
	// fn is the per-point closure: the fold of small regions and refused
	// operands, and the oracle the tape fold is tested against.
	fn      expr.Compiled
	engine  Engine
	pool    *bufpool.Pool
	poolRnk int
}

// NewReducer binds node to env. Nothing is checked until the first Reduce.
func NewReducer(node expr.Node, env expr.Env) *Reducer {
	return &Reducer{node: node, env: env, refs: expr.Refs(node), scalars: Capture(expr.Scalars(node))}
}

// SetEngine selects the fold: the span tape where it pays (EngineTape, the
// default) or the per-point closure always (any other engine).
func (rd *Reducer) SetEngine(e Engine) { rd.engine = e }

// SetScratch routes the tape's register leases through pool under the given
// pool rank. A nil pool (the default) allocates plainly.
func (rd *Reducer) SetScratch(pool *bufpool.Pool, rank int) {
	rd.pool, rd.poolRnk = pool, rank
	if rd.tape != nil {
		rd.tape.SetScratch(pool, rank)
	}
}

// ReleaseScratch returns pooled registers; the next tape fold re-leases.
func (rd *Reducer) ReleaseScratch() {
	if rd.tape != nil {
		rd.tape.ReleaseScratch()
	}
}

// Rebind points the reducer at env's arrays and keeps what does not depend
// on them: a lowered tape re-resolves its fields in place (kernel.Expr.Rebind)
// and is lowered again on the next fold only when they do not fit it; the
// closure, which bakes its fields in, is compiled again, and the region is
// checked again. A nil env drops every array reference: the reducer folds
// again only after a Rebind to a non-nil env.
func (rd *Reducer) Rebind(env expr.Env) {
	rd.env, rd.fn, rd.checked = env, nil, false
	if rd.tape != nil && !rd.tape.Rebind(env) {
		rd.tape.ReleaseScratch()
		rd.tape = nil
	}
}

// check is every refusal a fold can raise, in the order a one-shot Reduce
// always raised them: a primed operand (legality condition (v)), a
// malformed or unbound reference, a shifted read outside its field.
func (rd *Reducer) check(region grid.Region) error {
	for _, r := range rd.refs {
		if r.Primed {
			return &LegalityError{Condition: 5, Msg: fmt.Sprintf(
				"reduction operand contains primed reference %s", r)}
		}
	}
	if err := expr.Validate(rd.node, region.Rank(), rd.env); err != nil {
		return err
	}
	for _, r := range rd.refs {
		f := rd.env.Array(r.Name)
		reg := region
		if r.Shift != nil {
			var err error
			reg, err = reg.Shift(r.Shift)
			if err != nil {
				return err
			}
		}
		if !f.Bounds().ContainsRegion(reg) {
			return fmt.Errorf("scan: reduction reference %s reads %v outside bounds %v", r, reg, f.Bounds())
		}
	}
	return nil
}

// Reduce folds the operand over region. The region is validated when it
// differs from the last one that passed; a refusal leaves nothing cached.
func (rd *Reducer) Reduce(op ReduceOp, region grid.Region) (float64, error) {
	if !rd.checked || !rd.region.Equal(region) {
		rd.checked = false
		if err := rd.check(region); err != nil {
			return 0, err
		}
		rd.region, rd.checked = region, true
	}
	if rd.scalars.Changed(rd.env) {
		rd.ReleaseScratch()
		rd.tape, rd.refused, rd.fn = nil, false, nil
	}
	if rd.engine == EngineTape && !rd.refused && (rd.warm || region.Size() >= minReduceTape) {
		if rd.tape == nil {
			x, err := kernel.LowerExpr(region.Rank(), rd.node, rd.env)
			if err != nil {
				rd.refused = true
			} else {
				x.SetScratch(rd.pool, rd.poolRnk)
				rd.tape = x
			}
		}
		if rd.tape != nil {
			rd.warm = true
			return rd.foldTape(op, region), nil
		}
	}
	if rd.fn == nil {
		c, err := expr.Compile(rd.node, rd.env)
		if err != nil {
			return 0, err
		}
		rd.fn = c
	}
	c := rd.fn
	acc := op.Identity()
	region.Each(nil, func(p grid.Point) {
		acc = op.Combine(acc, c(p))
	})
	rd.warm = true
	return acc, nil
}

// foldTape evaluates the operand span by span in Each(nil, …)'s order and
// folds every span element by element, in order, into one accumulator: the
// loops below are Combine with the operator hoisted, so the sum keeps its
// association and max/min keep Combine's treatment of NaN and signed zero.
func (rd *Reducer) foldTape(op ReduceOp, region grid.Region) float64 {
	acc := op.Identity()
	spans := rd.tape.Begin(region)
	for k := 0; k < spans; k++ {
		v := rd.tape.Span(k)
		switch op {
		case SumReduce:
			for _, x := range v {
				acc += x
			}
		case MaxReduce:
			for _, x := range v {
				if x > acc {
					acc = x
				}
			}
		case MinReduce:
			for _, x := range v {
				if x < acc {
					acc = x
				}
			}
		}
	}
	return acc
}
