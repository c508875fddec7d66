package zpl

import (
	"os"
	"strings"
	"testing"
)

// runBoth executes the same source serially and in parallel and compares
// every array and scalar.
func runBoth(t *testing.T, src string, procs, block int) (*Interp, *Interp) {
	t.Helper()
	serial, err := RunSource(src, Options{})
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	par, err := RunParallelSource(src, Options{}, procs, block)
	if err != nil {
		t.Fatalf("parallel p=%d: %v", procs, err)
	}
	for name, f := range serial.Env().Arrays {
		pf := par.Env().Arrays[name]
		if pf == nil {
			t.Fatalf("parallel lost array %q", name)
		}
		if d := pf.MaxAbsDiff(f.Bounds(), f); d != 0 {
			t.Errorf("p=%d: array %q differs by %g", procs, name, d)
		}
	}
	for name := range serial.scalarVars {
		sv := serial.Env().Scalars[name]
		pv := par.Env().Scalars[name]
		if sv != pv {
			t.Errorf("p=%d: scalar %q = %g, serial %g", procs, name, pv, sv)
		}
	}
	return serial, par
}

// TestParallelTomcatvZPL: the full testdata/tomcatv.zpl program (both
// sweeps) through the session runtime.
func TestParallelTomcatvZPL(t *testing.T) {
	src, err := os.ReadFile("../../testdata/tomcatv.zpl")
	if err != nil {
		t.Fatal(err)
	}
	// The file ends with writeln(rx) which parallel mode rejects; strip it.
	code := string(src)
	code = code[:strings.Index(code, "writeln")]
	for _, p := range []int{1, 2, 3} {
		runBoth(t, code, p, 3)
	}
}

// TestParallelConvergenceLoop: an iterated Jacobi relaxation with a max<<
// reduction driving a scalar — reductions, halo exchange, and scalar SPMD
// state together.
func TestParallelConvergenceLoop(t *testing.T) {
	src := `
const n = 10;
region Big = [0..n+1, 0..n+1];
region R   = [1..n, 1..n];
direction north = [-1, 0];
direction south = [1, 0];
direction west  = [0, -1];
direction east  = [0, 1];
var a, b : [Big] double;
var resid : double;

[Big] a := 0;
[Big] b := 0;
[0, 0..n+1] a := 100;
[0, 0..n+1] b := 100;

for iter := 1 to 25 do
  [R] b := (a@north + a@south + a@west + a@east) / 4;
  [R] resid := max<< abs(b - a);
  [R] a := b;
end;
`
	for _, p := range []int{1, 2, 4} {
		serial, par := runBoth(t, src, p, 0)
		if serial.Env().Scalars["resid"] != par.Env().Scalars["resid"] {
			t.Errorf("residuals differ")
		}
		if !(par.Env().Scalars["resid"] > 0) {
			t.Errorf("residual should be positive, got %g", par.Env().Scalars["resid"])
		}
	}
}

// TestParallelSweepZPL: the four-octant transport sweep, with wavefronts
// travelling in all four directions through the same session.
func TestParallelSweepZPL(t *testing.T) {
	src, err := os.ReadFile("../../testdata/sweep.zpl")
	if err != nil {
		t.Fatal(err)
	}
	code := string(src)
	code = code[:strings.Index(code, "writeln")]
	for _, p := range []int{2, 3} {
		runBoth(t, code, p, 2)
	}
}

func TestParallelWritelnScalars(t *testing.T) {
	var out strings.Builder
	_, err := RunParallelSource(`
const n = 4;
region R = [1..n, 1..n];
var a : [R] double;
var s : double;
[R] a := 3;
[R] s := +<< a;
writeln("total", s);
`, Options{Out: &out}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "total 48") {
		t.Errorf("output = %q", out.String())
	}
	if strings.Count(out.String(), "total") != 1 {
		t.Error("writeln must print once, not per rank")
	}
}

func TestParallelRejectsDynamicRegion(t *testing.T) {
	_, err := RunParallelSource(`
const n = 6;
region R = [1..n, 1..n];
var a : [R] double;
[R] a := 0;
for j := 1 to n do
  [j, 1..n] a := j;
end;
`, Options{}, 2, 0)
	if err == nil || !strings.Contains(err.Error(), "static") {
		t.Fatalf("err = %v, want static-region rejection", err)
	}
}

// TestParallelRejectsDynamicShift: an inline shift is evaluated when the
// statement is lowered, which the ranks do once and away from their own
// scalars; one that names a scalar variable used to run with the value the
// variable had before the run (0 for d below, so b read a unshifted).
func TestParallelRejectsDynamicShift(t *testing.T) {
	const decls = `
const n = 4;
region Big = [0..n+1, 0..n+1];
region R = [1..n, 1..n];
var a, b : [Big] double;
var d, s : double;
[Big] a := 1;
d := 1;
`
	for _, stmt := range []string{"[R] b := a@[0-d, 0];", "[R] s := +<< a@[0-d, 0];"} {
		if _, err := RunSource(decls+stmt, Options{}); err != nil {
			t.Fatalf("%s: serial: %v", stmt, err)
		}
		_, err := RunParallelSource(decls+stmt, Options{}, 2, 0)
		if err == nil || !strings.Contains(err.Error(), "shifts must be static") {
			t.Errorf("%s: err = %v, want static-shift rejection", stmt, err)
		}
	}
}

// TestParallelArrayWriteln: printing an array after the last array work is
// fine (it reads the gathered state); printing one mid-run is rejected.
func TestParallelArrayWriteln(t *testing.T) {
	var out strings.Builder
	_, err := RunParallelSource(`
const n = 4;
region R = [1..n, 1..n];
var a : [R] double;
[R] a := 1;
writeln("final:", a);
`, Options{Out: &out}, 2, 0)
	if err != nil {
		t.Fatalf("trailing array writeln should work: %v", err)
	}
	if !strings.Contains(out.String(), "1 1 1 1") {
		t.Errorf("output = %q", out.String())
	}

	_, err = RunParallelSource(`
const n = 4;
region R = [1..n, 1..n];
var a : [R] double;
[R] a := 1;
writeln(a);
[R] a := 2;
`, Options{}, 2, 0)
	if err == nil || !strings.Contains(err.Error(), "gather") {
		t.Fatalf("err = %v, want mid-run array-writeln rejection", err)
	}
}

// TestParallelScalarOnlyProgramFallsBack: programs with no array work run
// serially.
func TestParallelScalarOnlyProgramFallsBack(t *testing.T) {
	var out strings.Builder
	_, err := RunParallelSource(`
var x : double;
x := 2;
x := x * 3;
writeln(x);
`, Options{Out: &out}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "6") {
		t.Errorf("output = %q", out.String())
	}
}

// TestParallelBoundaryRowBlock: a single-row block leaves most ranks idle
// but must still execute correctly.
func TestParallelBoundaryRowBlock(t *testing.T) {
	src := `
const n = 9;
region Big = [0..n+1, 0..n+1];
region R   = [1..n, 1..n];
direction north = [-1, 0];
var a, b : [Big] double;
[Big] a := 1;
[Big] b := 0;
[0, 0..n+1] a := 50;
[R] b := a@north + 1;
`
	for _, p := range []int{2, 4} {
		runBoth(t, src, p, 0)
	}
}
