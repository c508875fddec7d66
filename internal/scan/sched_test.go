package scan

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/taskdag"
	"wavefront/internal/trace"
)

// schedTestBlock is a two-axis forward wavefront: every point reads its
// primed north and west neighbours, so the task DAG carries dependences
// along both dimensions.
func schedTestBlock(n int) *Block {
	return NewScan(grid.Square(2, 1, n),
		Stmt{LHS: expr.Ref("a"), RHS: expr.AddN(
			expr.Const(0.1),
			expr.MulN(expr.Const(0.3), expr.Ref("a").At(grid.Direction{-1, 0}).Prime()),
			expr.MulN(expr.Const(0.3), expr.Ref("a").At(grid.Direction{0, -1}).Prime()),
		)},
	)
}

func schedTestEnv(n int) *expr.MapEnv {
	env := &expr.MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{}}
	f := field.MustNew("a", grid.Square(2, 0, n), field.RowMajor)
	r := rand.New(rand.NewSource(17))
	f.FillFunc(f.Bounds(), func(grid.Point) float64 { return 0.5 + r.Float64() })
	env.Arrays["a"] = f
	return env
}

// TestParseScheduler pins the flag spelling both ways.
func TestParseScheduler(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Scheduler
		ok   bool
	}{
		{"static", SchedStatic, true},
		{"", SchedStatic, true},
		{"taskdag", SchedTaskDAG, true},
		{"dynamic", SchedStatic, false},
	} {
		got, err := ParseScheduler(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseScheduler(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	if SchedStatic.String() != "static" || SchedTaskDAG.String() != "taskdag" {
		t.Errorf("scheduler names %q/%q; want static/taskdag", SchedStatic, SchedTaskDAG)
	}
}

// TestExecTaskDAGBitIdentical runs the same block serially and under the
// task-DAG scheduler at several pool sizes; every cell must match exactly.
func TestExecTaskDAGBitIdentical(t *testing.T) {
	n := 48
	blk := schedTestBlock(n)
	oracle := schedTestEnv(n)
	if err := Exec(blk, oracle, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	bounds := grid.Square(2, 0, n)
	for _, w := range []int{1, 2, 4, 8} {
		env := schedTestEnv(n)
		if err := Exec(blk, env, ExecOptions{Scheduler: SchedTaskDAG, Workers: w}); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if diff := env.Arrays["a"].MaxAbsDiff(bounds, oracle.Arrays["a"]); diff != 0 {
			t.Errorf("workers=%d: taskdag exec differs from serial by %g", w, diff)
		}
	}
}

// TestExecTaskDAGTraceValidates records a task-DAG Exec and feeds the
// dynamic schedule through the wavefront-safety validator.
func TestExecTaskDAGTraceValidates(t *testing.T) {
	n, workers := 48, 4
	blk := schedTestBlock(n)
	env := schedTestEnv(n)
	rec := trace.New(workers, 1024)
	if err := Exec(blk, env, ExecOptions{Scheduler: SchedTaskDAG, Workers: workers,
		Trace: rec, TraceRank: 0}); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateRecorder(rec); err != nil {
		t.Errorf("dynamic schedule failed validation: %v", err)
	}
	tiles := 0
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindTaskTile {
			tiles++
		}
	}
	if tiles == 0 {
		t.Error("traced taskdag Exec recorded no task-tile events")
	}
}

// TestExecTaskDAGClosureEngine forces the per-point closure reference
// engine under the DAG scheduler; both engines must agree bit-for-bit.
func TestExecTaskDAGClosureEngine(t *testing.T) {
	n := 32
	blk := schedTestBlock(n)
	oracle := schedTestEnv(n)
	if err := Exec(blk, oracle, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	env := schedTestEnv(n)
	if err := Exec(blk, env, ExecOptions{Scheduler: SchedTaskDAG, Workers: 4,
		Engine: EngineClosure}); err != nil {
		t.Fatal(err)
	}
	if diff := env.Arrays["a"].MaxAbsDiff(grid.Square(2, 0, n), oracle.Arrays["a"]); diff != 0 {
		t.Errorf("closure-engine taskdag exec differs from serial by %g", diff)
	}
}

// TestExecTaskDAGOrderSeedSweep perturbs the pop order through the
// package hook; every perturbed schedule must still produce the exact
// serial answer.
func TestExecTaskDAGOrderSeedSweep(t *testing.T) {
	defer func() { taskdagOrderSeed = 0 }()
	n := 32
	blk := schedTestBlock(n)
	oracle := schedTestEnv(n)
	if err := Exec(blk, oracle, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	bounds := grid.Square(2, 0, n)
	for seed := int64(1); seed <= 8; seed++ {
		taskdagOrderSeed = seed * 7919
		env := schedTestEnv(n)
		if err := Exec(blk, env, ExecOptions{Scheduler: SchedTaskDAG, Workers: 4}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if diff := env.Arrays["a"].MaxAbsDiff(bounds, oracle.Arrays["a"]); diff != 0 {
			t.Errorf("seed %d: perturbed pop order changed the answer by %g", seed, diff)
		}
	}
}

// TestExecTaskDAGRejectsPlainBlock: the DAG scheduler only applies to scan
// blocks' fused loops; a plain block must still execute correctly (the
// scheduler is ignored on the non-fused path).
func TestExecTaskDAGPlainBlockUnaffected(t *testing.T) {
	n := 16
	reg := grid.Square(2, 1, n)
	blk := NewPlain(reg, Stmt{LHS: expr.Ref("a"), RHS: expr.MulN(expr.Const(2), expr.Ref("a"))})
	oracle := schedTestEnv(n)
	if err := Exec(blk, oracle, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	env := schedTestEnv(n)
	if err := Exec(blk, env, ExecOptions{Scheduler: SchedTaskDAG, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if diff := env.Arrays["a"].MaxAbsDiff(grid.Square(2, 0, n), oracle.Arrays["a"]); diff != 0 {
		t.Errorf("plain block under taskdag option differs by %g", diff)
	}
}

// TestTaskGraphBindsOneKernelPerSpecAndWorker pins the one place kernels
// meet workers: the factory is asked once per (spec, worker), spec-major;
// the merged run equals the blocks run serially; a closed graph refuses to
// run; and a factory error comes back with the pool already retired.
func TestTaskGraphBindsOneKernelPerSpecAndWorker(t *testing.T) {
	const n, workers = 32, 3
	blocks, env := mkGroupBlocks(t, n, 2)
	refBlocks, refEnv := mkGroupBlocks(t, n, 2)
	specs := make([]taskdag.Spec, len(blocks))
	for i, b := range blocks {
		if err := Exec(refBlocks[i], refEnv, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
		an, err := Analyze(b, dep.Preference{})
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = taskdag.Spec{Region: b.Region, Loop: an.Loop, UDVs: an.UDVs}
	}
	var asked []int
	tg, err := NewTaskGraph(specs, taskdag.Options{Workers: workers}, func(sub, _ int) (*Kernel, error) {
		asked = append(asked, sub)
		return NewKernelDeps(blocks[sub], env, specs[sub].UDVs)
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(asked) != "[0 0 0 1 1 1]" {
		t.Errorf("factory asked for specs %v, want each spec once per worker, spec-major", asked)
	}
	tg.Run()
	tg.Run() // repeatable: the second pass recomputes from the first's output
	for i := range refBlocks {
		if err := Exec(refBlocks[i], refEnv, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range blocks {
		name := b.Stmts[0].LHS.Name
		if d := env.Arrays[name].MaxAbsDiff(b.Region, refEnv.Arrays[name]); d != 0 {
			t.Errorf("%s: merged task graph differs from serial by %g", name, d)
		}
	}
	tg.Close()
	func() {
		defer func() {
			if r := recover(); r != "taskdag: Run after Stop" {
				t.Errorf("Run on a closed TaskGraph recovered %v, want the refusal", r)
			}
		}()
		tg.Run()
	}()

	before := runtime.NumGoroutine()
	boom := errors.New("no kernel")
	if _, err := NewTaskGraph(specs, taskdag.Options{Workers: workers}, func(sub, _ int) (*Kernel, error) {
		if sub == 1 {
			return nil, boom
		}
		return NewKernelDeps(blocks[sub], env, specs[sub].UDVs)
	}); !errors.Is(err, boom) {
		t.Fatalf("NewTaskGraph returned %v, want the factory's error", err)
	}
	// Stop has waited for the workers' last statement, not for the runtime
	// to reap them: give the count a moment to settle.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after a failed build, %d before: the pool was not retired", runtime.NumGoroutine(), before)
		}
	}
}
