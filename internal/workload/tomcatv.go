// Package workload implements the paper's evaluation programs — Tomcatv
// (SPECfp92) and a SIMPLE-style Lagrangian hydrodynamics step (LLNL
// UCID-17715) — plus additional wavefront computations used by the extended
// benchmark suite the paper's conclusion calls for: a SWEEP3D-style
// discrete-ordinates sweep, dynamic-programming recurrences, and a Jacobi
// control workload with no wavefront at all.
//
// Every workload is expressed twice: through scan blocks (the paper's
// language extension, executed by internal/scan and internal/pipeline) and
// through an explicit per-row loop (the Figure 2(a) baseline). Native
// column-major kernels for the cache experiments live in native.go.
package workload

import (
	"fmt"
	"math"

	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/scan"
)

// Tomcatv is a faithful-shape port of the SPECfp92 Tomcatv mesh-generation
// iteration: residual stencils (fully parallel), a forward-elimination
// wavefront travelling north to south (the exact fragment of Figures 1 and
// 2), a back-substitution wavefront travelling south to north, and a mesh
// update. The two wavefronts are the program's only serialized parts, as in
// the paper's evaluation.
type Tomcatv struct {
	N   int
	Env *expr.MapEnv

	// All is the storage region; Interior the stencil region; Wave the
	// wavefront region of the Figure 2 fragment.
	All, Interior, Wave grid.Region

	relax float64
}

// TomcatvArrays lists the program's arrays.
var TomcatvArrays = []string{"x", "y", "rx", "ry", "aa", "dd", "d", "r"}

// NewTomcatv allocates and initializes an n×n problem (n >= 8) with the
// given storage layout.
func NewTomcatv(n int, layout field.Layout) (*Tomcatv, error) {
	if n < 8 {
		return nil, fmt.Errorf("workload: tomcatv needs n >= 8, got %d", n)
	}
	t := &Tomcatv{
		N:        n,
		All:      grid.MustRegion(grid.NewRange(1, n), grid.NewRange(1, n)),
		Interior: grid.MustRegion(grid.NewRange(2, n-1), grid.NewRange(2, n-1)),
		Wave:     grid.MustRegion(grid.NewRange(2, n-2), grid.NewRange(2, n-1)),
		relax:    0.3,
		Env:      &expr.MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{}},
	}
	for _, name := range TomcatvArrays {
		f, err := field.New(name, t.All, layout)
		if err != nil {
			return nil, err
		}
		t.Env.Arrays[name] = f
	}
	t.Reset()
	return t, nil
}

// Reset restores the initial distorted mesh.
func (t *Tomcatv) Reset() {
	n := float64(t.N)
	x, y := t.Env.Arrays["x"], t.Env.Arrays["y"]
	t.All.Each(nil, func(p grid.Point) {
		i, j := float64(p[0]), float64(p[1])
		x.Set(p, i/n+0.08*math.Sin(3*j/n)*math.Cos(2*i/n))
		y.Set(p, j/n+0.08*math.Cos(2*j/n)*math.Sin(3*i/n))
	})
	for _, name := range []string{"rx", "ry", "aa", "dd", "d", "r"} {
		t.Env.Arrays[name].Fill(0)
	}
}

// ResidualBlock is the fully parallel residual computation: a five-point
// Laplacian of the mesh coordinates.
func (t *Tomcatv) ResidualBlock() *scan.Block {
	lap := func(a string) expr.Node {
		return expr.Binary{Op: expr.Sub,
			L: expr.AddN(
				expr.Ref(a).AtNamed("north", grid.North),
				expr.Ref(a).AtNamed("south", grid.South),
				expr.Ref(a).AtNamed("west", grid.West),
				expr.Ref(a).AtNamed("east", grid.East),
			),
			R: expr.MulN(expr.Const(4), expr.Ref(a)),
		}
	}
	return scan.NewPlain(t.Interior,
		scan.Stmt{LHS: expr.Ref("rx"), RHS: lap("x")},
		scan.Stmt{LHS: expr.Ref("ry"), RHS: lap("y")},
	)
}

// CoefficientBlock computes the diagonally dominant tridiagonal
// coefficients used by the solver sweeps (fully parallel).
func (t *Tomcatv) CoefficientBlock() *scan.Block {
	// aa = -1 - 0.1*(x_e - x_w)^2 ; dd = 4 + 0.1*(y_n - y_s)^2. Diagonal
	// dominance (|dd| > 2|aa|) keeps the recurrences stable.
	sq := func(e expr.Node) expr.Node { return expr.Binary{Op: expr.Mul, L: e, R: e} }
	dx := expr.Binary{Op: expr.Sub,
		L: expr.Ref("x").AtNamed("east", grid.East),
		R: expr.Ref("x").AtNamed("west", grid.West)}
	dy := expr.Binary{Op: expr.Sub,
		L: expr.Ref("y").AtNamed("north", grid.North),
		R: expr.Ref("y").AtNamed("south", grid.South)}
	return scan.NewPlain(t.Interior,
		scan.Stmt{LHS: expr.Ref("aa"), RHS: expr.Binary{Op: expr.Sub,
			L: expr.Const(-1),
			R: expr.MulN(expr.Const(0.1), sq(dx))}},
		scan.Stmt{LHS: expr.Ref("dd"), RHS: expr.Binary{Op: expr.Add,
			L: expr.Const(4),
			R: expr.MulN(expr.Const(0.1), sq(dy))}},
	)
}

// ForwardBlock is the paper's Figure 2(b) scan block, verbatim: the forward
// elimination wavefront travelling north to south.
func (t *Tomcatv) ForwardBlock() *scan.Block {
	north := grid.North
	return scan.NewScan(t.Wave,
		scan.Stmt{LHS: expr.Ref("r"), RHS: expr.Binary{Op: expr.Mul,
			L: expr.Ref("aa"),
			R: expr.Ref("d").AtNamed("north", north).Prime()}},
		scan.Stmt{LHS: expr.Ref("d"), RHS: expr.Binary{Op: expr.Div,
			L: expr.Const(1),
			R: expr.Binary{Op: expr.Sub,
				L: expr.Ref("dd"),
				R: expr.Binary{Op: expr.Mul, L: expr.Ref("aa").AtNamed("north", north), R: expr.Ref("r")}}}},
		scan.Stmt{LHS: expr.Ref("rx"), RHS: expr.Binary{Op: expr.Sub,
			L: expr.Ref("rx"),
			R: expr.Binary{Op: expr.Mul, L: expr.Ref("rx").AtNamed("north", north).Prime(), R: expr.Ref("r")}}},
		scan.Stmt{LHS: expr.Ref("ry"), RHS: expr.Binary{Op: expr.Sub,
			L: expr.Ref("ry"),
			R: expr.Binary{Op: expr.Mul, L: expr.Ref("ry").AtNamed("north", north).Prime(), R: expr.Ref("r")}}},
	)
}

// BackwardBlock is the back-substitution wavefront travelling south to
// north: rx := (rx - aa*rx'@south) * d, and likewise ry.
func (t *Tomcatv) BackwardBlock() *scan.Block {
	south := grid.South
	back := func(a string) scan.Stmt {
		return scan.Stmt{LHS: expr.Ref(a), RHS: expr.Binary{Op: expr.Mul,
			L: expr.Binary{Op: expr.Sub,
				L: expr.Ref(a),
				R: expr.Binary{Op: expr.Mul, L: expr.Ref("aa"), R: expr.Ref(a).AtNamed("south", south).Prime()}},
			R: expr.Ref("d")}}
	}
	return scan.NewScan(t.Wave, back("rx"), back("ry"))
}

// UpdateBlock applies the relaxed corrections to the mesh (fully parallel).
func (t *Tomcatv) UpdateBlock() *scan.Block {
	upd := func(a, r string) scan.Stmt {
		return scan.Stmt{LHS: expr.Ref(a), RHS: expr.Binary{Op: expr.Add,
			L: expr.Ref(a),
			R: expr.MulN(expr.Const(t.relax), expr.Ref(r))}}
	}
	return scan.NewPlain(t.Interior, upd("x", "rx"), upd("y", "ry"))
}

// Blocks returns the whole iteration in execution order.
func (t *Tomcatv) Blocks() []*scan.Block {
	return []*scan.Block{
		t.ResidualBlock(),
		t.CoefficientBlock(),
		t.ForwardBlock(),
		t.BackwardBlock(),
		t.UpdateBlock(),
	}
}

// Step runs one full iteration through the scan-block executor and returns
// the residual magnitude before the update.
func (t *Tomcatv) Step() (float64, error) {
	for _, b := range t.Blocks() {
		if err := scan.Exec(b, t.Env, scan.ExecOptions{}); err != nil {
			return 0, err
		}
	}
	return t.ResidualMax(), nil
}

// StepExplicitLoop runs the same iteration with the two wavefronts phrased
// as explicit per-row loops of plain array statements (Figure 2(a) / the
// Fortran 90 form of Figure 1(b)), the baseline the paper compares against.
func (t *Tomcatv) StepExplicitLoop() (float64, error) {
	for _, b := range []*scan.Block{t.ResidualBlock(), t.CoefficientBlock()} {
		if err := scan.Exec(b, t.Env, scan.ExecOptions{}); err != nil {
			return 0, err
		}
	}
	// Forward elimination, row at a time, north to south.
	fwd := t.ForwardBlock()
	for j := 2; j <= t.N-2; j++ {
		row := grid.MustRegion(grid.NewRange(j, j), t.Wave.Dim(1))
		blk := scan.NewPlain(row, unprime(fwd.Stmts)...)
		if err := scan.Exec(blk, t.Env, scan.ExecOptions{}); err != nil {
			return 0, err
		}
	}
	// Back substitution, row at a time, south to north.
	bwd := t.BackwardBlock()
	for j := t.N - 2; j >= 2; j-- {
		row := grid.MustRegion(grid.NewRange(j, j), t.Wave.Dim(1))
		blk := scan.NewPlain(row, unprime(bwd.Stmts)...)
		if err := scan.Exec(blk, t.Env, scan.ExecOptions{}); err != nil {
			return 0, err
		}
	}
	if err := scan.Exec(t.UpdateBlock(), t.Env, scan.ExecOptions{}); err != nil {
		return 0, err
	}
	return t.ResidualMax(), nil
}

// unprime strips prime operators for the explicit-loop form: with a single
// row covered per statement, the shifted references read the previous row's
// completed values directly, as in Figure 2(a).
func unprime(stmts []scan.Stmt) []scan.Stmt {
	out := make([]scan.Stmt, len(stmts))
	for i, s := range stmts {
		out[i] = scan.Stmt{LHS: s.LHS, RHS: unprimeNode(s.RHS)}
	}
	return out
}

func unprimeNode(n expr.Node) expr.Node {
	switch t := n.(type) {
	case expr.ArrayRef:
		t.Primed = false
		return t
	case expr.Unary:
		t.X = unprimeNode(t.X)
		return t
	case expr.Binary:
		t.L, t.R = unprimeNode(t.L), unprimeNode(t.R)
		return t
	case expr.Call:
		args := make([]expr.Node, len(t.Args))
		for i, a := range t.Args {
			args[i] = unprimeNode(a)
		}
		t.Args = args
		return t
	}
	return n
}

// ResidualMax returns max(|rx|, |ry|) over the interior, the quantity
// Tomcatv iterates to convergence.
func (t *Tomcatv) ResidualMax() float64 {
	rx, ry := t.Env.Arrays["rx"], t.Env.Arrays["ry"]
	worst := 0.0
	t.Interior.Each(nil, func(p grid.Point) {
		if v := math.Abs(rx.At(p)); v > worst {
			worst = v
		}
		if v := math.Abs(ry.At(p)); v > worst {
			worst = v
		}
	})
	return worst
}

// WaveCols reports the wavefront width, for the analytic and simulated
// experiments.
func (t *Tomcatv) WaveCols() int { return t.Wave.Dim(1).Size() }
