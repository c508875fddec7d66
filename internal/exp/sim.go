package exp

import (
	"wavefront/internal/expr"
	"wavefront/internal/grid"
	"wavefront/internal/machine"
	"wavefront/internal/pipeline"
	"wavefront/internal/scan"
)

// sweep is a program the simulated figures schedule, over its domain.
type sweep struct {
	prog   *pipeline.Program
	domain grid.Region
}

func newSweep(domain grid.Region, blocks ...*scan.Block) (sweep, error) {
	prog, err := pipeline.NewProgram(blocks...)
	return sweep{prog, domain}, err
}

// paperSweep is the paper's idealised n × n wavefront as the runtime plans
// it: a := 0.5·a'@north over [1..n]², one array pipelined at depth 1, tiles
// cut along the columns. The block is legal, so an error is a bug.
func paperSweep(n int) sweep {
	blk := scan.NewPlain(grid.Square(2, 1, n), scan.Stmt{LHS: expr.Ref("a"),
		RHS: expr.MulN(expr.Const(0.5), expr.Ref("a").At(grid.North).Prime())})
	s, err := newSweep(blk.Region, blk)
	if err != nil {
		panic(err)
	}
	return s
}

// schedule is the runtime's static schedule of the sweep on p ranks at tile
// width b (0: the naive schedule).
func (s sweep) schedule(p, b int) (*machine.DAG, error) {
	return s.prog.Schedule(pipeline.Config{Procs: p, Domain: s.domain, Block: b})
}

func (s sweep) simulate(par machine.Params, p, b int) (machine.Result, error) {
	d, err := s.schedule(p, b)
	if err != nil {
		return machine.Result{}, err
	}
	return par.Simulate(d), nil
}
