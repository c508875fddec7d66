package machine_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"wavefront/internal/expr"
	"wavefront/internal/grid"
	"wavefront/internal/machine"
	"wavefront/internal/model"
	"wavefront/internal/pipeline"
	"wavefront/internal/scan"
)

// The simulator costs the runtime's own schedule (pipeline.Program.Schedule):
// these tests hold that schedule, on the paper's n × n sweep, to the model of
// §4.

// sweep is the paper's n × n wavefront over [1..n]², a := 0.5·a'@dir:
// north travels the rows low to high, south high to low.
func sweep(n int, dir grid.Direction) *scan.Block {
	return scan.NewPlain(grid.Square(2, 1, n), scan.Stmt{
		LHS: expr.Ref("a"),
		RHS: expr.MulN(expr.Const(0.5), expr.Ref("a").At(dir).Prime()),
	})
}

// schedule is the runtime's schedule of blocks over the first one's region.
func schedule(cfg pipeline.Config, blocks ...*scan.Block) (*machine.DAG, error) {
	prog, err := pipeline.NewProgram(blocks...)
	if err != nil {
		return nil, err
	}
	if cfg.Domain.Rank() == 0 {
		cfg.Domain = blocks[0].Region
	}
	return prog.Schedule(cfg)
}

func simulate(t *testing.T, par machine.Params, p, b int, blocks ...*scan.Block) machine.Result {
	t.Helper()
	d, err := schedule(pipeline.Config{Procs: p, Block: b}, blocks...)
	if err != nil {
		t.Fatal(err)
	}
	return par.Simulate(d)
}

func TestNaiveScheduleMatchesClosedForm(t *testing.T) {
	// Naive schedule (single tile): the last processor finishes at
	// n²  +  (p-1)(α + βn): fully serialized compute plus one boundary
	// message per processor pair.
	n, p := 64, 4
	par := machine.Params{Alpha: 100, Beta: 3, ElemCost: 1}
	res := simulate(t, par, p, 0, sweep(n, grid.North))
	want := float64(n*n) + float64(p-1)*(par.Alpha+par.Beta*float64(n))
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Errorf("naive makespan = %g, want %g", res.Makespan, want)
	}
}

// TestPipelinedScheduleMatchesModel: with rows divisible by p and cols
// divisible by b, the simulated pipelined makespan must equal the paper's
// T_comp + T_comm closed form exactly (the model counts the same critical
// path the schedule realizes).
func TestPipelinedScheduleMatchesModel(t *testing.T) {
	n, p, b := 64, 4, 8
	par := machine.Params{Alpha: 50, Beta: 2, ElemCost: 1}
	res := simulate(t, par, p, b, sweep(n, grid.North))
	want := model.Model2(par.Alpha, par.Beta).TPipe(float64(n), float64(p), float64(b))
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Errorf("pipelined makespan = %g, model = %g", res.Makespan, want)
	}
}

func TestWavefrontMessageVolume(t *testing.T) {
	n, p, b := 32, 4, 8
	res := simulate(t, machine.Params{Alpha: 1, Beta: 1, ElemCost: 1}, p, b, sweep(n, grid.North))
	if want := int64(p-1) * int64(n/b); res.Messages != want {
		t.Errorf("messages = %d, want %d", res.Messages, want)
	}
	if want := int64(p-1) * int64(n); res.Elements != want {
		t.Errorf("elements = %d, want %d", res.Elements, want)
	}
}

func TestSweepsAccumulate(t *testing.T) {
	n, p := 16, 2
	par := machine.Params{Alpha: 5, Beta: 1, ElemCost: 1}
	fwd := sweep(n, grid.North)
	one := simulate(t, par, p, 4, fwd)
	two := simulate(t, par, p, 4, fwd, fwd)
	if two.Makespan <= one.Makespan {
		t.Errorf("two sweeps (%g) must take longer than one (%g)", two.Makespan, one.Makespan)
	}
	if two.Elements != 2*one.Elements {
		t.Errorf("two sweeps volume = %d, want %d", two.Elements, 2*one.Elements)
	}
}

func TestAlternateSweepsVShape(t *testing.T) {
	// Two same-direction sweeps chase each other through the pipeline (the
	// second fills while the first drains), whereas a reversed sweep cannot
	// start until the forward wave reaches the far end and then pays a full
	// pipeline re-fill on the way back. Alternation must therefore be
	// slower, by no more than one additional fill.
	n, p, b := 32, 4, 8
	par := machine.Params{Alpha: 20, Beta: 1, ElemCost: 1}
	fwd := sweep(n, grid.North)
	same := simulate(t, par, p, b, fwd, fwd)
	alt := simulate(t, par, p, b, fwd, sweep(n, grid.South))
	if alt.Makespan <= same.Makespan {
		t.Errorf("alternating sweeps (%g) should pay a pipeline re-fill over same-direction (%g)", alt.Makespan, same.Makespan)
	}
	fill := float64(p-1) * (float64(n/p*b) + par.MsgCost(b))
	if alt.Makespan > same.Makespan+fill+1e-9 {
		t.Errorf("alternation penalty %g exceeds one pipeline fill %g", alt.Makespan-same.Makespan, fill)
	}
}

func TestBadSpecRejected(t *testing.T) {
	fwd := sweep(4, grid.North)
	if _, err := schedule(pipeline.Config{Procs: 1, Domain: grid.Square(2, 1, 0)}, fwd); err == nil {
		t.Error("empty domain must fail")
	}
	if _, err := schedule(pipeline.Config{Procs: 0}, fwd); err == nil {
		t.Error("zero procs must fail")
	}
	var se *pipeline.ScheduleError
	_, err := schedule(pipeline.Config{Procs: 2, Scheduler: scan.SchedTaskDAG}, fwd)
	if !errors.As(err, &se) || se.Block != -1 {
		t.Errorf("task-DAG scheduler: err = %v, want a *ScheduleError for the configuration", err)
	}
	// b := a@north reads the halo row the fill of a dirtied: a refresh the
	// schedule does not model.
	fill := scan.NewPlain(fwd.Region, scan.Stmt{LHS: expr.Ref("a"), RHS: expr.Const(1)})
	read := scan.NewPlain(fwd.Region, scan.Stmt{LHS: expr.Ref("b"), RHS: expr.Ref("a").At(grid.North)})
	if _, err := schedule(pipeline.Config{Procs: 1}, fill, read); err != nil {
		t.Errorf("one rank refreshes nothing: %v", err)
	}
	_, err = schedule(pipeline.Config{Procs: 2}, fill, read)
	if !errors.As(err, &se) || se.Block != 1 || !strings.Contains(se.Reason, `"a"`) {
		t.Errorf("refresh of a dirtied halo: err = %v, want a *ScheduleError for block 1 naming \"a\"", err)
	}
}

// TestTimelineMatchesSimulate: the recording simulator must agree with the
// plain one on every aggregate.
func TestTimelineMatchesSimulate(t *testing.T) {
	par := machine.Params{Alpha: 50, Beta: 2, ElemCost: 1}
	fwd, bwd := sweep(48, grid.North), sweep(48, grid.South)
	d, err := schedule(pipeline.Config{Procs: 4, Block: 6}, fwd, bwd)
	if err != nil {
		t.Fatal(err)
	}
	plain := par.Simulate(d)
	tl := par.SimulateTimeline(d)
	if tl.Result.Makespan != plain.Makespan || tl.Result.Messages != plain.Messages ||
		tl.Result.Elements != plain.Elements || tl.Result.CommCost != plain.CommCost ||
		tl.Result.Work() != plain.Work() {
		t.Errorf("timeline result %+v != simulate result %+v", tl.Result, plain)
	}
	if len(tl.Spans) != len(d.Tasks) {
		t.Errorf("spans = %d, tasks = %d", len(tl.Spans), len(d.Tasks))
	}
	for i, s := range tl.Spans {
		if s.Finish < s.Start || s.Recv < 0 {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
	}
	g := tl.Gantt(40)
	if !strings.Contains(g, "P1") || !strings.Contains(g, "#") {
		t.Errorf("gantt = %q", g)
	}
}
