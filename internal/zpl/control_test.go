package zpl

import (
	"strings"
	"testing"
)

func TestIfElse(t *testing.T) {
	var out strings.Builder
	_, err := RunSource(`
var x, y : double;
x := 5;
if x > 3 then
  y := 1;
else
  y := 2;
end;
writeln("y =", y);
if x < 3 then
  y := 10;
end;
writeln("still", y);
if x >= 5 and x <= 5 then
  y := 7;
end;
if not (y != 7) then writeln("seven"); end;
`, Options{Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"y = 1", "still 1", "seven"} {
		if !strings.Contains(got, want) {
			t.Errorf("output %q missing %q", got, want)
		}
	}
}

func TestRepeatUntil(t *testing.T) {
	var out strings.Builder
	_, err := RunSource(`
var x, count : double;
x := 1;
count := 0;
repeat
  x := x * 2;
  count := count + 1;
until x > 100;
writeln(x, count);
`, Options{Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "128 7") {
		t.Errorf("output = %q", out.String())
	}
}

// TestRepeatUntilConverged is the idiom the paper's benchmarks use: iterate
// the solver until the residual reduction crosses a threshold.
func TestRepeatUntilConverged(t *testing.T) {
	it, err := RunSource(`
const n = 8;
region Big = [0..n+1, 0..n+1];
region R   = [1..n, 1..n];
direction north = [-1, 0];
direction south = [1, 0];
direction west  = [0, -1];
direction east  = [0, 1];
var a, b : [Big] double;
var resid, iters : double;

[Big] a := 0;
[Big] b := 0;
[0, 0..n+1] a := 100;
[0, 0..n+1] b := 100;

iters := 0;
repeat
  [R] b := (a@north + a@south + a@west + a@east) / 4;
  [R] resid := max<< abs(b - a);
  [R] a := b;
  iters := iters + 1;
until resid < 0.5 or iters >= 500;
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resid := it.Env().Scalars["resid"]
	iters := it.Env().Scalars["iters"]
	if !(resid < 0.5) {
		t.Errorf("did not converge: resid = %g after %g iters", resid, iters)
	}
	if !(iters > 3 && iters < 500) {
		t.Errorf("suspicious iteration count %g", iters)
	}
}

// TestParallelRepeatUntil: the same convergence idiom through the parallel
// runtime; the reduction-driven exit condition must agree on all ranks.
func TestParallelRepeatUntil(t *testing.T) {
	src := `
const n = 10;
region Big = [0..n+1, 0..n+1];
region R   = [1..n, 1..n];
direction north = [-1, 0];
direction south = [1, 0];
direction west  = [0, -1];
direction east  = [0, 1];
var a, b : [Big] double;
var resid, iters : double;

[Big] a := 0;
[Big] b := 0;
[0, 0..n+1] a := 100;
[0, 0..n+1] b := 100;

iters := 0;
repeat
  [R] b := (a@north + a@south + a@west + a@east) / 4;
  [R] resid := max<< abs(b - a);
  [R] a := b;
  iters := iters + 1;
until resid < 1.0 or iters >= 200;
`
	serial, err := RunSource(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3} {
		par, err := RunParallelSource(src, Options{}, p, 0)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if par.Env().Scalars["iters"] != serial.Env().Scalars["iters"] {
			t.Errorf("p=%d: iterations %g != serial %g", p,
				par.Env().Scalars["iters"], serial.Env().Scalars["iters"])
		}
		a := par.Env().Arrays["a"]
		if d := a.MaxAbsDiff(a.Bounds(), serial.Env().Arrays["a"]); d != 0 {
			t.Errorf("p=%d: array differs by %g", p, d)
		}
	}
}

var controlFlowErrorSrcs = []string{
	"if 1 then end;",                   // missing comparison
	"if 1 < 2 end;",                    // missing then
	"repeat x := 1;",                   // missing until
	"var x : double; if x < then end;", // missing operand
}

func TestControlFlowErrors(t *testing.T) {
	for _, src := range controlFlowErrorSrcs {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q should not parse", src)
		}
	}
}

func TestIfInsideForAndRegion(t *testing.T) {
	it, err := RunSource(`
const n = 4;
region R = [1..n, 1..n];
var a : [R] double;
var odd : double;
[R] a := 0;
for j := 1 to n do
  odd := j - 2 * (j / 2 - 0.5) - 1;   -- j mod 2 via arithmetic
  if j >= 3 then
    [j, 1..n] a := j;
  end;
end;
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := it.Env().Arrays["a"]
	if a.At2(2, 1) != 0 || a.At2(3, 1) != 3 || a.At2(4, 2) != 4 {
		t.Error("conditional row fill wrong")
	}
}

// TestOfRegions: ZPL's border operator in declarations and prefixes.
func TestOfRegions(t *testing.T) {
	it, err := RunSource(`
const n = 4;
region Big = [0..n+1, 0..n+1];
region R   = [1..n, 1..n];
direction north = [-1, 0];
direction south = [1, 0];
region Top = north of R;
var a : [Big] double;
[Big] a := 0;
[Top] a := 9;           -- named border region
[south of R] a := -7;   -- inline border prefix
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := it.Env().Arrays["a"]
	if a.At2(0, 2) != 9 {
		t.Errorf("top border = %g, want 9", a.At2(0, 2))
	}
	if a.At2(5, 3) != -7 {
		t.Errorf("bottom border = %g, want -7", a.At2(5, 3))
	}
	if a.At2(1, 1) != 0 || a.At2(4, 4) != 0 {
		t.Error("interior must stay 0")
	}
	top, ok := it.Region("Top")
	if !ok || top.Size() != 4 {
		t.Errorf("Top region = %v, %v", top, ok)
	}
}

func TestOfRegionErrors(t *testing.T) {
	cases := []string{
		"region X = north of R;",                      // neither declared
		"region R = [1..2,1..2]; region X = zz of R;", // bad direction
		"direction d = [1,0]; region X = d of QQ;",    // bad base
	}
	for _, src := range cases {
		if _, err := RunSource(src, Options{}); err == nil {
			t.Errorf("%q should fail", src)
		}
	}
}

// TestOfRegionParallel: border prefixes are static, so they work in
// parallel mode.
func TestOfRegionParallel(t *testing.T) {
	src := `
const n = 8;
region Big = [0..n+1, 0..n+1];
region R   = [1..n, 1..n];
direction north = [-1, 0];
var a, b : [Big] double;
[Big] a := 1;
[Big] b := 0;
[north of R] a := 42;
[R] b := a@north;
`
	serial, err := RunSource(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallelSource(src, Options{}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := par.Env().Arrays["b"]
	if d := b.MaxAbsDiff(b.Bounds(), serial.Env().Arrays["b"]); d != 0 {
		t.Errorf("parallel border program differs by %g", d)
	}
	if b.At2(1, 3) != 42 {
		t.Errorf("b[1,3] = %g, want 42", b.At2(1, 3))
	}
}

// TestAnalyzeControlFlow: the static analyzer walks if/else and repeat
// bodies.
func TestAnalyzeControlFlow(t *testing.T) {
	prog, err := Parse(`
const n = 6;
region Big = [0..n, 1..n];
region R   = [1..n, 1..n];
direction north = [-1, 0];
var a : [Big] double;
var x : double;
x := 1;
if x > 0 then
  [R] scan
    a := a'@north + 1;
  end;
else
  [R] a := 0;
end;
repeat
  [R] a := a + 1;
  x := x + 1;
until x > 3;
`)
	if err != nil {
		t.Fatal(err)
	}
	it := New(Options{})
	reports, err := it.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	// One scan block (then), one plain (else), one plain (repeat body).
	if len(reports) != 3 {
		t.Fatalf("reports = %d, want 3", len(reports))
	}
	if reports[0].Kind.String() != "scan" || reports[0].Analysis.WSV.String() != "(-,0)" {
		t.Errorf("scan report = %+v", reports[0])
	}
}
