package workload

import (
	"fmt"
	"math"
	"math/rand"

	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/scan"
)

// Factor is right-looking blocked factorization — LU on a diagonally
// dominant matrix, or Cholesky on a symmetric positive-definite one —
// expressed as a 2D-dependent tile graph. Each elimination step k is a
// short program over shrinking regions of the same array:
//
//	B1  rowk = a                    on [k, k..n-1]      pivot-row snapshot
//	B2  rowk = rowk'@north          on [k+1..n-1, k..]  broadcast pivot row
//	B3  colk = a / rowk             on [k+1..n-1, k]    multipliers
//	B4  colk = colk'@west           on the trailing submatrix
//	    a = a - colk * rowk
//	B5  a = colk                    on [k+1..n-1, k]    store L (LU)
//	B5' a = colk * sqrt(rowk)       on [k+1..n-1, k]    store L (Cholesky)
//	B6  a = sqrt(a)                 on [k, k], all k    Cholesky diagonal
//
// This is the first workload family whose regions shrink as the sweep
// progresses (the trailing submatrix loses a row and column every step),
// so low-index ranks go idle mid-program — the empty-portion wavefront
// path — and tile cost varies by position, stressing the task-DAG pool's
// load balancing in ways the uniform-cost paper trio cannot.
type Factor struct {
	N   int
	Env *expr.MapEnv

	All grid.Region

	// Chol selects Cholesky (symmetric positive-definite input, L·Lᵀ
	// reconstruction) over LU (diagonally dominant input, L·U).
	Chol bool

	blocks []*scan.Block
	// shape[i] says which of the program's statement shapes blocks[i] is
	// (B1..B5 are 0..4, B6 is 5): blocks of one shape differ only in region.
	shape []int8
	init  *field.Field
}

// FactorArrays lists the arrays compared differentially. Only the matrix
// itself is program output; rowk/colk are broadcast scratch whose final
// contents are an implementation detail of the last elimination step.
var FactorArrays = []string{"a"}

// NewLU allocates an n×n LU factorization over a reproducible diagonally
// dominant matrix (uniform [0,1) entries, n added to the diagonal).
func NewLU(n int, seed int64, layout field.Layout) (*Factor, error) {
	return newFactor(n, seed, layout, false)
}

// NewCholesky allocates an n×n Cholesky factorization over a reproducible
// symmetric positive-definite matrix.
func NewCholesky(n int, seed int64, layout field.Layout) (*Factor, error) {
	return newFactor(n, seed, layout, true)
}

func newFactor(n int, seed int64, layout field.Layout, chol bool) (*Factor, error) {
	if n < 4 {
		return nil, fmt.Errorf("workload: factorization needs n >= 4, got %d", n)
	}
	w := &Factor{
		N:    n,
		All:  grid.Square(2, 0, n-1),
		Chol: chol,
		Env:  &expr.MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{}},
	}
	for _, name := range []string{"a", "rowk", "colk"} {
		f, err := field.New(name, w.All, layout)
		if err != nil {
			return nil, err
		}
		w.Env.Arrays[name] = f
	}
	rng := rand.New(rand.NewSource(seed))
	a := w.Env.Arrays["a"]
	if chol {
		for i := 0; i < n; i++ {
			a.Set2(i, i, float64(n)+rng.Float64())
			for j := i + 1; j < n; j++ {
				v := rng.Float64()
				a.Set2(i, j, v)
				a.Set2(j, i, v)
			}
		}
	} else {
		a.FillFunc(w.All, func(p grid.Point) float64 {
			v := rng.Float64()
			if p[0] == p[1] {
				v += float64(n)
			}
			return v
		})
	}
	w.init = a.Clone()
	w.buildBlocks()
	return w, nil
}

// buildBlocks constructs every elimination step's blocks once: a session
// keys its per-block plans by these pointers, so they must be the same
// across runs.
func (w *Factor) buildBlocks() {
	n := w.N
	aRef, rowRef, colRef := expr.Ref("a"), expr.Ref("rowk"), expr.Ref("colk")
	sqrt := func(x expr.Node) expr.Node {
		return expr.Call{Fn: expr.Sqrt, Args: []expr.Node{x}}
	}
	for k := 0; k < n-1; k++ {
		rowK := grid.MustRegion(grid.NewRange(k, k), grid.NewRange(k, n-1))
		bcast := grid.MustRegion(grid.NewRange(k+1, n-1), grid.NewRange(k, n-1))
		colK := grid.MustRegion(grid.NewRange(k+1, n-1), grid.NewRange(k, k))
		trail := grid.MustRegion(grid.NewRange(k+1, n-1), grid.NewRange(k+1, n-1))
		store := scan.Stmt{LHS: aRef, RHS: colRef}
		if w.Chol {
			store.RHS = expr.MulN(colRef, sqrt(rowRef))
		}
		w.blocks = append(w.blocks,
			scan.NewPlain(rowK, scan.Stmt{LHS: rowRef, RHS: aRef}),
			scan.NewScan(bcast,
				scan.Stmt{LHS: rowRef, RHS: rowRef.AtNamed("north", grid.North).Prime()}),
			scan.NewPlain(colK,
				scan.Stmt{LHS: colRef, RHS: expr.Binary{Op: expr.Div, L: aRef, R: rowRef}}),
			scan.NewScan(trail,
				scan.Stmt{LHS: colRef, RHS: colRef.AtNamed("west", grid.West).Prime()},
				scan.Stmt{LHS: aRef, RHS: expr.Binary{Op: expr.Sub, L: aRef, R: expr.MulN(colRef, rowRef)}}),
			scan.NewPlain(colK, store),
		)
		w.shape = append(w.shape, 0, 1, 2, 3, 4)
	}
	if w.Chol {
		// Diagonal square roots commute with every later elimination step
		// (step k' > k never touches row or column k), so they run as a
		// tail pass — and the oracle folds them at the same point.
		for k := 0; k < n; k++ {
			diag := grid.MustRegion(grid.NewRange(k, k), grid.NewRange(k, k))
			w.blocks = append(w.blocks,
				scan.NewPlain(diag, scan.Stmt{LHS: aRef, RHS: sqrt(aRef)}))
			w.shape = append(w.shape, 5)
		}
	}
}

// Blocks returns the full elimination program in execution order.
func (w *Factor) Blocks() []*scan.Block { return w.blocks }

// Reset restores the original matrix and clears the broadcast scratch.
func (w *Factor) Reset() {
	w.Env.Arrays["a"].CopyRegion(w.All, w.init)
	w.Env.Arrays["rowk"].Fill(0)
	w.Env.Arrays["colk"].Fill(0)
}

// Run executes the factorization serially under the given options. The
// program is five statement shapes (six with Cholesky's diagonal square
// root) over shrinking regions, so each shape is prepared once, from its
// first block, every step passes its own region, and each is closed at the
// end: under SchedTaskDAG a shape keeps one pool and one graph, re-cut per
// step, and no worker outlives the call.
func (w *Factor) Run(opts scan.ExecOptions) error {
	var shapes [6]*scan.Prepared
	defer func() {
		for _, p := range shapes {
			if p != nil {
				p.Close()
			}
		}
	}()
	for i, b := range w.blocks {
		p := shapes[w.shape[i]]
		if p == nil {
			var err error
			if p, err = scan.Prepare(b, w.Env, opts); err != nil {
				return err
			}
			shapes[w.shape[i]] = p
		}
		if err := p.Run(b.Region); err != nil {
			return err
		}
	}
	return nil
}

// Reference factors a copy of the original matrix with straight Go loops,
// in exactly the block program's operation order and operand order, so the
// pipelined result must match it bit for bit.
func (w *Factor) Reference() *field.Field {
	n := w.N
	a := w.init.Clone()
	colk := make([]float64, n)
	for k := 0; k < n-1; k++ {
		d := a.At2(k, k)
		for i := k + 1; i < n; i++ {
			colk[i] = a.At2(i, k) / d
		}
		for i := k + 1; i < n; i++ {
			for j := k + 1; j < n; j++ {
				a.Set2(i, j, a.At2(i, j)-colk[i]*a.At2(k, j))
			}
		}
		if w.Chol {
			sd := math.Sqrt(d)
			for i := k + 1; i < n; i++ {
				a.Set2(i, k, colk[i]*sd)
			}
		} else {
			for i := k + 1; i < n; i++ {
				a.Set2(i, k, colk[i])
			}
		}
	}
	if w.Chol {
		for k := 0; k < n; k++ {
			a.Set2(k, k, math.Sqrt(a.At2(k, k)))
		}
	}
	return a
}

// ResidualMax multiplies the factors back together and returns the largest
// absolute deviation from the original matrix — the numerical-accuracy
// check that is independent of the bit-identity differential.
func (w *Factor) ResidualMax() float64 {
	n := w.N
	a := w.Env.Arrays["a"]
	worst := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sum := 0.0
			if w.Chol {
				// L·Lᵀ from the lower triangle (diagonal included).
				for t := 0; t <= min(i, j); t++ {
					sum += a.At2(i, t) * a.At2(j, t)
				}
			} else {
				// Unit-lower L times upper U.
				for t := 0; t <= min(i, j); t++ {
					lv := a.At2(i, t)
					if t == i {
						lv = 1
					}
					sum += lv * a.At2(t, j)
				}
			}
			if d := math.Abs(sum - w.init.At2(i, j)); d > worst {
				worst = d
			}
		}
	}
	return worst
}
