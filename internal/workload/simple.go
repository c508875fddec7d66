package workload

import (
	"fmt"
	"math"

	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/scan"
)

// Simple is a SIMPLE-style 2-D Lagrangian hydrodynamics step (after the
// LLNL SIMPLE code, Crowley et al., UCID-17715): an explicit hydro phase —
// pressure from an ideal-gas equation of state, artificial viscosity,
// velocity and energy updates, all fully parallel stencils — followed by an
// implicit heat-conduction phase solved by forward-elimination and
// back-substitution sweeps, the program's two wavefront computations. The
// original Fortran is not public; this port preserves the structure the
// paper's evaluation relies on: two wavefronts embedded in a larger,
// otherwise fully parallel step (see DESIGN.md's substitution table).
type Simple struct {
	N   int
	Env *expr.MapEnv

	All, Interior, Wave grid.Region

	gamma float64
}

// SimpleArrays lists the program's arrays: velocity (u,v), density rho,
// specific energy e, pressure p, viscosity q, conduction coefficients
// cc/dd2/gg, and temperature tt.
var SimpleArrays = []string{"u", "v", "rho", "e", "p", "q", "cc", "dd2", "gg", "tt"}

// NewSimple allocates and initializes an n×n problem.
func NewSimple(n int, layout field.Layout) (*Simple, error) {
	if n < 8 {
		return nil, fmt.Errorf("workload: simple needs n >= 8, got %d", n)
	}
	s := &Simple{
		N:        n,
		All:      grid.MustRegion(grid.NewRange(1, n), grid.NewRange(1, n)),
		Interior: grid.MustRegion(grid.NewRange(2, n-1), grid.NewRange(2, n-1)),
		Wave:     grid.MustRegion(grid.NewRange(2, n-2), grid.NewRange(2, n-1)),
		gamma:    1.4,
		Env:      &expr.MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{}},
	}
	for _, name := range SimpleArrays {
		f, err := field.New(name, s.All, layout)
		if err != nil {
			return nil, err
		}
		s.Env.Arrays[name] = f
	}
	s.Reset()
	return s, nil
}

// Reset restores the initial shocked-gas state.
func (s *Simple) Reset() {
	n := float64(s.N)
	for name, f := range s.Env.Arrays {
		name := name
		f.FillFunc(s.All, func(p grid.Point) float64 {
			i, j := float64(p[0]), float64(p[1])
			switch name {
			case "rho":
				return 1 + 0.3*math.Exp(-((i-n/2)*(i-n/2)+(j-n/2)*(j-n/2))/(n*n/16))
			case "e":
				return 2 + 0.5*math.Sin(4*i/n)*math.Cos(3*j/n)
			case "u":
				return 0.1 * math.Sin(2*j/n)
			case "v":
				return 0.1 * math.Cos(2*i/n)
			case "tt":
				return 1 + 0.2*math.Cos(5*(i+j)/n)
			}
			return 0
		})
	}
}

// HydroBlocks is the explicit phase: equation of state, artificial
// viscosity, and velocity/energy updates. Every statement is fully
// parallel.
func (s *Simple) HydroBlocks() []*scan.Block {
	gm1 := expr.Const(s.gamma - 1)
	eos := scan.NewPlain(s.Interior,
		// p = (γ-1)·ρ·e
		scan.Stmt{LHS: expr.Ref("p"), RHS: expr.MulN(gm1, expr.Ref("rho"), expr.Ref("e"))},
	)
	du := expr.Binary{Op: expr.Sub, L: expr.Ref("u").AtNamed("east", grid.East), R: expr.Ref("u")}
	dv := expr.Binary{Op: expr.Sub, L: expr.Ref("v").AtNamed("south", grid.South), R: expr.Ref("v")}
	visc := scan.NewPlain(s.Interior,
		// q = ρ·((Δu)² + (Δv)²), the von Neumann–Richtmyer form.
		scan.Stmt{LHS: expr.Ref("q"), RHS: expr.MulN(expr.Ref("rho"),
			expr.AddN(
				expr.Binary{Op: expr.Mul, L: du, R: du},
				expr.Binary{Op: expr.Mul, L: dv, R: dv}))},
	)
	dt := expr.Const(0.002)
	grad := func(a string, d1, d2 grid.Direction, n1, n2 string) expr.Node {
		return expr.Binary{Op: expr.Sub, L: expr.Ref(a).AtNamed(n1, d1), R: expr.Ref(a).AtNamed(n2, d2)}
	}
	motion := scan.NewPlain(s.Interior,
		// u -= dt·∂(p+q)/∂x ; v -= dt·∂(p+q)/∂y (pressure gradient force)
		scan.Stmt{LHS: expr.Ref("u"), RHS: expr.Binary{Op: expr.Sub,
			L: expr.Ref("u"),
			R: expr.MulN(dt, expr.Binary{Op: expr.Add,
				L: grad("p", grid.East, grid.West, "east", "west"),
				R: grad("q", grid.East, grid.West, "east", "west")})}},
		scan.Stmt{LHS: expr.Ref("v"), RHS: expr.Binary{Op: expr.Sub,
			L: expr.Ref("v"),
			R: expr.MulN(dt, expr.Binary{Op: expr.Add,
				L: grad("p", grid.South, grid.North, "south", "north"),
				R: grad("q", grid.South, grid.North, "south", "north")})}},
		// e -= dt·(p+q)·div(u,v)
		scan.Stmt{LHS: expr.Ref("e"), RHS: expr.Binary{Op: expr.Sub,
			L: expr.Ref("e"),
			R: expr.MulN(dt,
				expr.Binary{Op: expr.Add, L: expr.Ref("p"), R: expr.Ref("q")},
				expr.Binary{Op: expr.Add,
					L: grad("u", grid.East, grid.West, "east", "west"),
					R: grad("v", grid.South, grid.North, "south", "north")})}},
	)
	return []*scan.Block{eos, visc, motion}
}

// ConductionSetupBlock computes the implicit solve's coefficients
// (parallel): cc is the off-diagonal coupling, dd2 the diagonally dominant
// denominator seed.
func (s *Simple) ConductionSetupBlock() *scan.Block {
	return scan.NewPlain(s.Interior,
		scan.Stmt{LHS: expr.Ref("cc"), RHS: expr.Binary{Op: expr.Add,
			L: expr.Const(-1),
			R: expr.MulN(expr.Const(-0.1), expr.Ref("rho"))}},
		scan.Stmt{LHS: expr.Ref("dd2"), RHS: expr.Binary{Op: expr.Add,
			L: expr.Const(4),
			R: expr.MulN(expr.Const(0.2), expr.Ref("e"))}},
	)
}

// ForwardSweepBlock is the first wavefront: forward elimination of the
// tridiagonal conduction system, north to south.
func (s *Simple) ForwardSweepBlock() *scan.Block {
	north := grid.North
	return scan.NewScan(s.Wave,
		// gg = 1 / (dd2 - cc·gg'@north·cc@north)
		scan.Stmt{LHS: expr.Ref("gg"), RHS: expr.Binary{Op: expr.Div,
			L: expr.Const(1),
			R: expr.Binary{Op: expr.Sub,
				L: expr.Ref("dd2"),
				R: expr.MulN(expr.Ref("cc"),
					expr.Ref("gg").AtNamed("north", north).Prime(),
					expr.Ref("cc").AtNamed("north", north))}}},
		// tt = tt - cc·tt'@north·gg
		scan.Stmt{LHS: expr.Ref("tt"), RHS: expr.Binary{Op: expr.Sub,
			L: expr.Ref("tt"),
			R: expr.MulN(expr.Ref("cc"),
				expr.Ref("tt").AtNamed("north", north).Prime(),
				expr.Ref("gg"))}},
	)
}

// BackwardSweepBlock is the second wavefront: back substitution, south to
// north, finishing the temperature solve and folding it into the energy.
func (s *Simple) BackwardSweepBlock() *scan.Block {
	south := grid.South
	return scan.NewScan(s.Wave,
		// tt = (tt - cc·tt'@south)·gg
		scan.Stmt{LHS: expr.Ref("tt"), RHS: expr.Binary{Op: expr.Mul,
			L: expr.Binary{Op: expr.Sub,
				L: expr.Ref("tt"),
				R: expr.MulN(expr.Ref("cc"), expr.Ref("tt").AtNamed("south", south).Prime())},
			R: expr.Ref("gg")}},
		// e = e + 0.01·tt (conduction contribution)
		scan.Stmt{LHS: expr.Ref("e"), RHS: expr.Binary{Op: expr.Add,
			L: expr.Ref("e"),
			R: expr.MulN(expr.Const(0.01), expr.Ref("tt"))}},
	)
}

// Blocks returns the whole step in execution order.
func (s *Simple) Blocks() []*scan.Block {
	blocks := s.HydroBlocks()
	blocks = append(blocks, s.ConductionSetupBlock(), s.ForwardSweepBlock(), s.BackwardSweepBlock())
	return blocks
}

// Step runs one full step via scan blocks and returns total energy.
func (s *Simple) Step() (float64, error) {
	for _, b := range s.Blocks() {
		if err := scan.Exec(b, s.Env, scan.ExecOptions{}); err != nil {
			return 0, err
		}
	}
	return s.TotalEnergy(), nil
}

// StepExplicitLoop runs the same step with the two sweeps phrased as
// explicit per-row loops, the non-scan baseline.
func (s *Simple) StepExplicitLoop() (float64, error) {
	for _, b := range s.HydroBlocks() {
		if err := scan.Exec(b, s.Env, scan.ExecOptions{}); err != nil {
			return 0, err
		}
	}
	if err := scan.Exec(s.ConductionSetupBlock(), s.Env, scan.ExecOptions{}); err != nil {
		return 0, err
	}
	fwd := s.ForwardSweepBlock()
	for j := 2; j <= s.N-2; j++ {
		row := grid.MustRegion(grid.NewRange(j, j), s.Wave.Dim(1))
		if err := scan.Exec(scan.NewPlain(row, unprime(fwd.Stmts)...), s.Env, scan.ExecOptions{}); err != nil {
			return 0, err
		}
	}
	bwd := s.BackwardSweepBlock()
	for j := s.N - 2; j >= 2; j-- {
		row := grid.MustRegion(grid.NewRange(j, j), s.Wave.Dim(1))
		if err := scan.Exec(scan.NewPlain(row, unprime(bwd.Stmts)...), s.Env, scan.ExecOptions{}); err != nil {
			return 0, err
		}
	}
	return s.TotalEnergy(), nil
}

// TotalEnergy sums e over the interior, a convergence/consistency proxy.
func (s *Simple) TotalEnergy() float64 {
	e := s.Env.Arrays["e"]
	sum := 0.0
	s.Interior.Each(nil, func(p grid.Point) { sum += e.At(p) })
	return sum
}
