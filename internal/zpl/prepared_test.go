package zpl

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"wavefront/internal/scan"
)

// TestLoopVariableByEveryRoute: statements are prepared on their first trip
// and held; one that reads a loop variable — as a scalar of its expression,
// in its region, inside an inline @[…] shift — must still see every trip's
// value. testdata/loopvar.out is what the interpreter printed when it
// lowered and analysed every statement on every trip.
func TestLoopVariableByEveryRoute(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "loopvar.zpl"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "loopvar.out"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	it, err := RunSource(string(src), Options{Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from testdata/loopvar.out:\n--- want ---\n%s--- got ---\n%s", want, out.Bytes())
	}
	// `a := a * 0.5 + k` keeps k a name: prepared once, compiled per value
	// behind the handle. The four statements with k inside an @[…] are
	// lowered again on each of the three trips.
	once, perTrip := 0, 0
	for _, h := range it.handles {
		switch h.builds {
		case 1:
			once++
		case 3:
			perTrip++
		case 0: // a scalar assignment
		default:
			t.Errorf("a statement was lowered %d times", h.builds)
		}
	}
	if once != 5 || perTrip != 4 {
		t.Errorf("%d statements lowered once and %d on every trip, want 5 and 4", once, perTrip)
	}
}

// TestHeatPreparesEachStatementOnce: testdata/heat.zpl runs its repeat body
// 104 times; its two array statements and its reduction — like the six
// statements before the loop — are lowered and prepared exactly once.
func TestHeatPreparesEachStatementOnce(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "heat.zpl"))
	if err != nil {
		t.Fatal(err)
	}
	it, err := RunSource(string(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if trips := it.Env().Scalars["iters"]; trips != 104 {
		t.Fatalf("heat ran %v trips, want 104", trips)
	}
	prepared, folds := 0, 0
	for slot, h := range it.handles {
		if h.builds > 1 {
			t.Errorf("statement in slot %d was lowered %d times over 104 trips", slot, h.builds)
		}
		if h.prep != nil {
			prepared++
		}
		if h.fold != nil {
			folds++
		}
	}
	if prepared != 8 || folds != 1 {
		t.Errorf("%d prepared array statements and %d held reductions, want 8 and 1", prepared, folds)
	}
}

// TestTaskDAGProgramClosesItsPools: under the task DAG the interpreter
// closes what its statements prepared — a statement prepared again because
// a scalar its lowering inlined changed, and every handle at program end —
// so no pool worker outlives the run, collected or not, and the output is
// the static schedule's.
func TestTaskDAGProgramClosesItsPools(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "loopvar.zpl"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "loopvar.out"))
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	var out bytes.Buffer
	opts := Options{Out: &out, Exec: scan.ExecOptions{Scheduler: scan.SchedTaskDAG, Workers: 3}}
	if _, err := RunSource(string(src), opts); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("task-DAG output differs from testdata/loopvar.out:\n--- want ---\n%s--- got ---\n%s", want, out.Bytes())
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the program, %d before", runtime.NumGoroutine(), base)
		}
	}
}
