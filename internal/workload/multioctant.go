package workload

import (
	"fmt"

	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/scan"
)

// MultiOctant is a transport sweep with K counter-propagating octants
// resident on the grid at once. Where the Sweep workload runs octants one
// after another into a single flux array, MultiOctant gives each octant its
// own angular-flux array over a shared source:
//
//	flux_k = (src + μ·flux_k'@up0 + η·flux_k'@up1) / σ     k = 0..K-1
//	total  = flux_0 + flux_1 + ...                          (combine pass)
//
// The octant blocks are mutually independent (each writes only its own
// flux array), so they compose into one scheduling group. The serial
// executor (scan.ExecGroup under SchedTaskDAG) merges their tile graphs
// onto one worker pool, which interleaves tiles from octants whose
// wavefronts travel in opposite directions and so fills the ramp-up /
// ramp-down idle time a single diagonal wavefront always has; a pipelined
// session (pipeline.Rank.ExecGroup) runs them back to back and gets its
// overlap across ranks instead.
type MultiOctant struct {
	N, K int
	Env  *expr.MapEnv

	All, Inner grid.Region

	Mu, Eta, Sigma float64

	octBlocks []*scan.Block
	combine   *scan.Block
}

// octantDirs lists the upwind direction pairs in counter-propagating order:
// octant 1 travels exactly opposite octant 0, and octant 3 opposite 2.
var octantDirs = [][2]grid.Direction{
	{{-1, 0}, {0, -1}}, // travels (+,+)
	{{1, 0}, {0, 1}},   // travels (-,-)
	{{-1, 0}, {0, 1}},  // travels (+,-)
	{{1, 0}, {0, -1}},  // travels (-,+)
}

// MultiOctantArrays returns the flux array names for a K-octant problem
// plus the combined total, in canonical order.
func MultiOctantArrays(k int) []string {
	var out []string
	for i := 0; i < k; i++ {
		out = append(out, fmt.Sprintf("flux%d", i))
	}
	return append(out, "total", "src")
}

// NewMultiOctant allocates an n×n problem with k octants (2 or 4; 2 gives
// the canonical counter-propagating pair).
func NewMultiOctant(n, k int, layout field.Layout) (*MultiOctant, error) {
	if n < 4 {
		return nil, fmt.Errorf("workload: multioctant needs n >= 4, got %d", n)
	}
	if k != 2 && k != 4 {
		return nil, fmt.Errorf("workload: multioctant needs 2 or 4 octants, got %d", k)
	}
	w := &MultiOctant{
		N: n, K: k,
		All:   grid.Square(2, 0, n+1),
		Inner: grid.Square(2, 1, n),
		Mu:    0.35, Eta: 0.25, Sigma: 2.0,
		Env: &expr.MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{}},
	}
	for _, name := range MultiOctantArrays(k) {
		f, err := field.New(name, w.All, layout)
		if err != nil {
			return nil, err
		}
		w.Env.Arrays[name] = f
	}
	w.Reset()
	w.buildBlocks()
	return w, nil
}

// Reset restores the source term and clears every flux array.
func (w *MultiOctant) Reset() {
	w.Env.Arrays["src"].FillFunc(w.All, func(p grid.Point) float64 {
		return 1 + 0.01*float64(p[0]) + 0.007*float64(p[1])
	})
	for i := 0; i < w.K; i++ {
		w.Env.Arrays[fmt.Sprintf("flux%d", i)].Fill(0)
	}
	w.Env.Arrays["total"].Fill(0)
}

func (w *MultiOctant) buildBlocks() {
	var totals []expr.Node
	for i := 0; i < w.K; i++ {
		name := fmt.Sprintf("flux%d", i)
		dirs := octantDirs[i]
		rhs := expr.Binary{Op: expr.Div,
			L: expr.AddN(
				expr.Ref("src"),
				expr.MulN(expr.Const(w.Mu), expr.Ref(name).At(dirs[0]).Prime()),
				expr.MulN(expr.Const(w.Eta), expr.Ref(name).At(dirs[1]).Prime())),
			R: expr.Const(w.Sigma)}
		w.octBlocks = append(w.octBlocks,
			scan.NewScan(w.Inner, scan.Stmt{LHS: expr.Ref(name), RHS: rhs}))
		totals = append(totals, expr.Ref(name))
	}
	w.combine = scan.NewPlain(w.Inner,
		scan.Stmt{LHS: expr.Ref("total"), RHS: expr.AddN(totals...)})
}

// OctantBlocks returns the K independent sweep blocks (built once).
func (w *MultiOctant) OctantBlocks() []*scan.Block { return w.octBlocks }

// CombineBlock returns the total-flux reduction block (built once).
func (w *MultiOctant) CombineBlock() *scan.Block { return w.combine }

// Blocks returns the whole program: every octant, then the combine.
func (w *MultiOctant) Blocks() []*scan.Block {
	return append(append([]*scan.Block(nil), w.octBlocks...), w.combine)
}

// Run executes the octants as one group (merged task DAG when opts select
// SchedTaskDAG) followed by the combine pass.
func (w *MultiOctant) Run(opts scan.ExecOptions) error {
	if err := scan.ExecGroup(w.octBlocks, w.Env, opts); err != nil {
		return err
	}
	return scan.Exec(w.combine, w.Env, opts)
}

// RunSequential executes the octants back to back with no grouping — the
// baseline the merged group must match bit for bit.
func (w *MultiOctant) RunSequential(opts scan.ExecOptions) error {
	for _, b := range w.octBlocks {
		if err := scan.Exec(b, w.Env, opts); err != nil {
			return err
		}
	}
	return scan.Exec(w.combine, w.Env, opts)
}

// Reference computes every octant's sweep and the total with straight Go
// loops in the blocks' operation order — the bit-identity oracle.
func (w *MultiOctant) Reference() map[string]*field.Field {
	n := w.N
	src := w.Env.Arrays["src"]
	out := map[string]*field.Field{"src": src}
	total := field.MustNew("total", w.All, field.RowMajor)
	for k := 0; k < w.K; k++ {
		name := fmt.Sprintf("flux%d", k)
		flux := field.MustNew(name, w.All, field.RowMajor)
		dirs := octantDirs[k]
		iLo, iHi, iStep := 1, n, 1
		if dirs[0][0] > 0 {
			iLo, iHi, iStep = n, 1, -1
		}
		jLo, jHi, jStep := 1, n, 1
		if dirs[1][1] > 0 {
			jLo, jHi, jStep = n, 1, -1
		}
		for i := iLo; i != iHi+iStep; i += iStep {
			for j := jLo; j != jHi+jStep; j += jStep {
				up0 := flux.At2(i+dirs[0][0], j+dirs[0][1])
				up1 := flux.At2(i+dirs[1][0], j+dirs[1][1])
				flux.Set2(i, j, (src.At2(i, j)+w.Mu*up0+w.Eta*up1)/w.Sigma)
			}
		}
		out[name] = flux
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			sum := out["flux0"].At2(i, j)
			for k := 1; k < w.K; k++ {
				sum += out[fmt.Sprintf("flux%d", k)].At2(i, j)
			}
			total.Set2(i, j, sum)
		}
	}
	out["total"] = total
	return out
}
