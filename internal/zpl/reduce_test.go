package zpl

import (
	"strings"
	"testing"
)

func TestReductionSyntax(t *testing.T) {
	var out strings.Builder
	_, err := RunSource(`
const n = 3;
region R = [1..n, 1..n];
var a : [R] double;
var s, m, lo : double;
[R] a := 2;
[1..n, 1..n] s := +<< a;
[R] m  := max<< a * a;
[R] lo := min<< a - 1;
writeln("s =", s, " m =", m, " lo =", lo);
`, Options{Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"s = 18", "m = 4", "lo = 1"} {
		if !strings.Contains(got, want) {
			t.Errorf("output %q missing %q", got, want)
		}
	}
}

// TestReductionNotConfusedWithCall: `max(a, b)` and unary plus must still
// parse as ordinary expressions.
func TestReductionNotConfusedWithCall(t *testing.T) {
	var out strings.Builder
	_, err := RunSource(`
var x, y : double;
x := 3;
y := max(x, 5) + +2;
writeln(y);
`, Options{Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "7") {
		t.Errorf("output = %q", out.String())
	}
}

var reductionErrorCases = []errorCase{
	{"no region", "var s : double; s := +<< 1;", "covering region"},
	{"array target", `
const n = 2;
region R = [1..n, 1..n];
var a, b : [R] double;
[R] a := +<< b;`, "must be a scalar"},
	{"primed operand", `
const n = 4;
region Big = [0..n, 1..n];
region R = [1..n, 1..n];
var a : [Big] double;
var s : double;
[R] s := max<< a'@[-1,0];`, "(v)"},
	{"undeclared target", `
const n = 2;
region R = [1..n, 1..n];
var a : [R] double;
[R] zz := +<< a;`, "not a declared scalar"},
}

func TestReductionErrors(t *testing.T) {
	for _, c := range reductionErrorCases {
		_, err := RunSource(c.src, Options{})
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: err %q missing %q", c.name, err, c.wantSub)
		}
	}
}

// TestConvergenceLoop: a realistic ZPL program — Jacobi relaxation iterated
// with a max<< residual test, the way real ZPL codes drive convergence.
func TestConvergenceLoop(t *testing.T) {
	var out strings.Builder
	it, err := RunSource(`
const n = 8;
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
[0, 0..n+1] a := 100;   -- hot top edge
[0, 0..n+1] b := 100;

for iter := 1 to 60 do
  [R] b := (a@north + a@south + a@west + a@east) / 4;
  [R] resid := max<< abs(b - a);
  [R] a := b;
end;
writeln("resid:", resid);
`, Options{Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	resid, ok := it.Env().Scalars["resid"]
	if !ok {
		t.Fatal("resid not set")
	}
	if !(resid < 1.0) {
		t.Errorf("residual did not shrink: %g", resid)
	}
	a := it.Env().Arrays["a"]
	if !(a.At2(1, 4) > a.At2(8, 4)) {
		t.Error("heat must decay away from the hot edge")
	}
}

func TestLexLtLt(t *testing.T) {
	toks, err := LexAll("s := +<< a;")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []Kind{IDENT, Assign, Plus, LtLt, IDENT, Semi, EOF}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Fatalf("token %d = %s, want %s", i, toks[i].Kind, k)
		}
	}
	cmp, err := LexAll("a < b <= c > d >= e != f /= g")
	if err != nil {
		t.Fatal(err)
	}
	wantCmp := []Kind{IDENT, Lt, IDENT, Le, IDENT, Gt, IDENT, Ge, IDENT, NotEq, IDENT, NotEq, IDENT, EOF}
	for i, k := range wantCmp {
		if cmp[i].Kind != k {
			t.Fatalf("comparison token %d = %s, want %s", i, cmp[i].Kind, k)
		}
	}
}
