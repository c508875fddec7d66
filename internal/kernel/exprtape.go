package kernel

import (
	"fmt"

	"wavefront/internal/bufpool"
	"wavefront/internal/expr"
	"wavefront/internal/grid"
)

// yieldDst is the destination index of a statement that has none: its tape
// ends in opYield and its value is handed to the caller span by span.
const yieldDst = 0xffff

// Expr is a bare expression — a reduction's operand — lowered to the span
// tape. It has no destination and carries no dependence, so it always runs
// as whole spans of the last dimension, in the canonical order of
// grid.Region.Each(nil, …): dimension 0 outermost, every dimension
// ascending. The caller folds the spans itself, which keeps the fold's
// order and comparison semantics where the closure fold has them.
//
// Like a Program, an Expr is not safe for concurrent use.
type Expr struct {
	pr     *Program
	region grid.Region
	n      int
}

// LowerExpr lowers node against env for regions of the given rank (a
// statement with no destination, so no store and no dependence). Scalars
// are captured now, as Lower captures them. An error means the expression is
// not tape-executable and the caller should evaluate it per point.
func LowerExpr(rank int, node expr.Node, env expr.Env) (*Expr, error) {
	if rank < 1 {
		return nil, fmt.Errorf("kernel: rank must be >= 1, got %d", rank)
	}
	pr, err := lower(rank, []expr.Assign{{RHS: node}}, env, true)
	if err != nil {
		return nil, err
	}
	return &Expr{pr: pr}, nil
}

// SetScratch routes register leases through pool under rank's shard, as
// Program.SetScratch does.
func (x *Expr) SetScratch(pool *bufpool.Pool, rank int) { x.pr.SetScratch(pool, rank) }

// ReleaseScratch returns the leased registers; the next Begin re-leases.
func (x *Expr) ReleaseScratch() { x.pr.ReleaseScratch() }

// Rebind resolves the expression's array names in env again, as
// Program.Rebind does: false means lower again; a nil env drops every field
// reference.
func (x *Expr) Rebind(env expr.Env) bool { return x.pr.Rebind(env) }

// Begin prepares evaluation over region and returns the number of spans
// that cover it (0 for an empty region). Every referenced field must
// contain every shifted read of the region; the caller checks.
func (x *Expr) Begin(region grid.Region) int {
	pr := x.pr
	if region.Rank() != pr.rank {
		panic(fmt.Sprintf("kernel: region rank %d, expression rank %d", region.Rank(), pr.rank))
	}
	spans := 1
	for d := 0; d < pr.rank; d++ {
		if region.Dim(d).Empty() {
			return 0
		}
		if d < pr.rank-1 {
			spans *= region.Dim(d).Size()
		}
	}
	x.region = region
	x.n = pr.beginSpans(region, pr.rank-1)
	clear(pr.base)
	for d := 0; d < pr.rank; d++ {
		lo, lows := region.Dim(d).Lo, pr.along(pr.lows, d)
		for fi, s := range pr.along(pr.strides, d) {
			pr.base[fi] += (lo - lows[fi]) * s
		}
	}
	return spans
}

// Span evaluates span k of the region given to Begin (0 <= k < the count
// Begin returned, in canonical order) and returns its values. The slice is
// a scratch register or, for a bare unit-step array reference, the field's
// own storage: read it before the next call and do not write it.
func (x *Expr) Span(k int) []float64 {
	pr := x.pr
	copy(pr.rbase, pr.base)
	for d := pr.rank - 2; d >= 0; d-- {
		r := x.region.Dim(d)
		sz := r.Size()
		i := k % sz
		k /= sz
		for fi, s := range pr.along(pr.strides, d) {
			pr.rbase[fi] += i * r.Stride * s
		}
	}
	pr.execRun(pr.rbase, x.n)
	return pr.yielded(x.n)
}
