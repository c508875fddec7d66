package zpl

import (
	"io"
	"strings"
	"testing"

	"wavefront/internal/grid"
)

func TestLexBasics(t *testing.T) {
	toks, err := LexAll(`region R = [1..n, 2]; -- comment
a' := 2.5e1 * b@north; // other comment`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []Kind
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
	}
	want := []Kind{KwRegion, IDENT, Eq, LBracket, NUMBER, DotDot, IDENT, Comma,
		NUMBER, RBracket, Semi, IDENT, Prime, Assign, NUMBER, Star, IDENT, At, IDENT, Semi, EOF}
	if len(kinds) != len(want) {
		t.Fatalf("token count %d, want %d: %v", len(kinds), len(want), toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %s, want %s", i, kinds[i], want[i])
		}
	}
	// 2.5e1 must lex as a single number 25.
	for _, tk := range toks {
		if tk.Kind == NUMBER && tk.Text == "2.5e1" && tk.Num != 25 {
			t.Errorf("2.5e1 lexed as %g", tk.Num)
		}
	}
}

func TestLexNumberVsDotDot(t *testing.T) {
	toks, err := LexAll("1..5")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 4 || toks[0].Kind != NUMBER || toks[1].Kind != DotDot || toks[2].Kind != NUMBER {
		t.Fatalf("1..5 lexed as %v", toks)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, "a $ b", "x .y"} {
		if _, err := LexAll(src); err == nil {
			t.Errorf("%q should not lex", src)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := LexAll("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != (Pos{1, 1}) || toks[1].Pos != (Pos{2, 3}) {
		t.Errorf("positions = %v, %v", toks[0].Pos, toks[1].Pos)
	}
}

func TestParseProgramShape(t *testing.T) {
	prog, err := Parse(`
const n = 8;
region R = [1..n, 1..n];
direction north = [-1, 0];
var A, B : [R] double;
var x : double;
[R] A := 1;
[2..n, 1..n] scan
  A := A'@north + B;
end;
for j := 2 to n-1 do
  [j, 1..n] A := 2 * A;
end;
writeln("done", x);
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Decls) != 5 {
		t.Errorf("decls = %d", len(prog.Decls))
	}
	if len(prog.Stmts) != 4 {
		t.Errorf("stmts = %d", len(prog.Stmts))
	}
	// Second statement: region-prefixed scan.
	rs, ok := prog.Stmts[1].(*RegionStmt)
	if !ok {
		t.Fatalf("stmt[1] = %T", prog.Stmts[1])
	}
	if _, ok := rs.Body.(*ScanStmt); !ok {
		t.Fatalf("scan body = %T", rs.Body)
	}
	// Named region prefix resolves to Name form.
	r0 := prog.Stmts[0].(*RegionStmt)
	if r0.Name != "R" {
		t.Errorf("stmt[0] region name = %q", r0.Name)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"region = [1..2];",
		"var A : [R double;",
		"[1..2] scan A := 1;", // missing end
		"for i := 1 5 do end;",
		"a := ;",
		"a := 1 +;",
		"direction d = [1,];",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q should not parse", src)
		}
	}
}

// TestFigure3Programs runs the paper's Figure 3 statements as source code
// and checks the resulting matrices.
func TestFigure3Programs(t *testing.T) {
	const n = 5
	src := `
const n = 5;
region All = [1..n, 1..n];
direction north = [-1, 0];
var a : [All] double;
[All] a := 1;
[2..n, 1..n] a := 2 * a@north;
`
	it, err := RunSource(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := it.Env().Arrays["a"]
	for i := 1; i <= n; i++ {
		want := 2.0
		if i == 1 {
			want = 1
		}
		if got := a.At2(i, 3); got != want {
			t.Errorf("unprimed row %d = %g, want %g", i, got, want)
		}
	}

	src = strings.Replace(src, "2 * a@north", "2 * a'@north", 1)
	it, err = RunSource(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a = it.Env().Arrays["a"]
	for i := 1; i <= n; i++ {
		want := float64(int(1) << (i - 1))
		if got := a.At2(i, 3); got != want {
			t.Errorf("primed row %d = %g, want %g", i, got, want)
		}
	}
}

// tomcatvZPL is the paper's Figure 2 computation in both forms.
const tomcatvScanSrc = `
const n = 20;
region All  = [1..n, 1..n];
region Wave = [2..n-2, 2..n-1];
direction north = [-1, 0];
var r, aa, d, dd, rx, ry : [All] double;

[All] begin
  aa := 0.4;
  dd := 4.0;
  d  := 1.0;
  rx := 2.0;
  ry := 3.0;
  r  := 0.0;
end;

[Wave] scan
  r  := aa * d'@north;
  d  := 1.0 / (dd - aa@north * r);
  rx := rx - rx'@north * r;
  ry := ry - ry'@north * r;
end;
`

const tomcatvLoopSrc = `
const n = 20;
region All = [1..n, 1..n];
direction north = [-1, 0];
var r, aa, d, dd, rx, ry : [All] double;

[All] begin
  aa := 0.4;
  dd := 4.0;
  d  := 1.0;
  rx := 2.0;
  ry := 3.0;
  r  := 0.0;
end;

for j := 2 to n-2 do
  [j, 2..n-1] begin
    r  := aa * d@north;
    d  := 1.0 / (dd - aa@north * r);
    rx := rx - rx@north * r;
    ry := ry - ry@north * r;
  end;
end;
`

// TestTomcatvZPLEquivalence: the scan-block program (Figure 2(b)) and the
// explicit-loop program (Figure 2(a)) must produce identical arrays.
func TestTomcatvZPLEquivalence(t *testing.T) {
	scanIt, err := RunSource(tomcatvScanSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loopIt, err := RunSource(tomcatvLoopSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	all, _ := scanIt.Region("All")
	for _, name := range []string{"r", "d", "rx", "ry"} {
		a := scanIt.Env().Arrays[name]
		b := loopIt.Env().Arrays[name]
		if d := a.MaxAbsDiff(all, b); d > 1e-12 {
			t.Errorf("%s differs between scan and loop forms by %g", name, d)
		}
	}
}

func TestScanBlockLegalityErrors(t *testing.T) {
	overconstrained := `
const n = 6;
region R   = [1..n, 1..n];
region Big = [0..n+1, 0..n+1];
direction west = [0, -1];
direction east = [0, 1];
var a : [Big] double;
[R] scan
  a := a'@west + a'@east;
end;
`
	if _, err := RunSource(overconstrained, Options{}); err == nil {
		t.Fatal("over-constrained scan block must be rejected")
	}

	primeUndefined := `
const n = 6;
region R   = [1..n, 1..n];
region Big = [0..n+1, 0..n+1];
direction north = [-1, 0];
var a, b : [Big] double;
[R] scan
  a := b'@north;
end;
`
	_, err := RunSource(primeUndefined, Options{})
	if err == nil || !strings.Contains(err.Error(), "(i)") {
		t.Fatalf("err = %v, want legality condition (i)", err)
	}
}

func TestScalarStatements(t *testing.T) {
	var out strings.Builder
	_, err := RunSource(`
var x, y : double;
x := 3;
y := x * 2 + 1;
writeln("y =", y);
writeln("min:", min(x, y));
`, Options{Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "y = 7") || !strings.Contains(got, "min: 3") {
		t.Errorf("output = %q", got)
	}
}

func TestForDownto(t *testing.T) {
	var out strings.Builder
	_, err := RunSource(`
var s : double;
s := 0;
for i := 5 downto 3 do
  s := s * 10 + i;
end;
writeln(s);
`, Options{Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "543") {
		t.Errorf("downto loop produced %q", out.String())
	}
}

func TestDynamicRegionInLoop(t *testing.T) {
	it, err := RunSource(`
const n = 4;
region R = [1..n, 1..n];
var a : [R] double;
[R] a := 0;
for j := 1 to n do
  [j, 1..j] a := j;
end;
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := it.Env().Arrays["a"]
	if a.At2(3, 3) != 3 || a.At2(3, 4) != 0 || a.At2(4, 1) != 4 {
		t.Error("triangular fill wrong")
	}
}

// errorCase is a program that must be refused with a diagnostic containing
// wantSub. The tables are package-level so TestOneWalkerBothModes can hold
// parallel mode to every case that has array work.
type errorCase struct{ name, src, wantSub string }

var semanticErrorCases = []errorCase{
	{"redeclare", "const n = 1; const n = 2;", "redeclared"},
	{"unknown region", "var a : [R] double;", "undeclared region"},
	{"assign const", "const c = 1; c := 2;", "constant"},
	{"undeclared assign", "x := 1;", "undeclared"},
	{"array no region", "const n=2; region R=[1..n,1..n]; var a:[R] double; a := 1;", "covering region"},
	{"scan needs region", "const n=2; region R=[1..n,1..n]; var a:[R] double; scan a := 1; end;", "covering region"},
	{"prime scalar", "const n=2; region R=[1..n,1..n]; var a:[R] double; var x: double; [R] a := x'; ", "non-array"},
	{"bad direction rank", "const n=2; region R=[1..n,1..n]; direction d=[1]; var a:[R] double; [R] a := a@d;", "rank"},
	{"scalar from array", "const n=2; region R=[1..n,1..n]; var a:[R] double; var x:double; x := a;", "scalar expression"},
	{"fractional region", "region R=[1..2.5]; var a:[R] double;", "integer"},
	{"unknown fn", "const n=2; region R=[1..n,1..n]; var a:[R] double; [R] a := gamma(a);", "unknown function"},
	{"nonassign in scan", "const n=2; region R=[1..n,1..n]; var a:[R] double; [R] scan writeln(); end;", "array assignments"},
}

func TestSemanticErrors(t *testing.T) {
	for _, c := range semanticErrorCases {
		_, err := RunSource(c.src, Options{})
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: err = %q, want substring %q", c.name, err, c.wantSub)
		}
	}
}

// TestScalarExpressionDiagnostics pins what the scalar evaluator says, and
// where: the messages and positions of the interpreter that lowered every
// scalar expression to an expr tree before evaluating it, including which
// of two faults in one expression is reported.
func TestScalarExpressionDiagnostics(t *testing.T) {
	const pre = "const n = 4;\nregion R = [1..n, 1..n];\ndirection north = [-1, 0];\n" +
		"var a, b : [R] double;\nvar x, y : double;\n"
	for _, c := range []struct{ stmt, want string }{
		{`x := a + 1;`, `zpl:6:6: array "a" in scalar expression`},
		{`x := -a;`, `zpl:6:7: array "a" in scalar expression`},
		{`x := sqrt(a);`, `zpl:6:11: array "a" in scalar expression`},
		{`x := foo(1);`, `zpl:6:6: unknown function "foo" (have: abs, exp, log, max, min, pow, sqrt)`},
		{`x := foo(zz);`, `zpl:6:10: undeclared name "zz"`},
		{`x := sqrt(1, 2);`, `zpl:6:6: sqrt takes 1 arguments, got 2`},
		{`x := max(1);`, `zpl:6:6: max takes 2 arguments, got 1`},
		{`x := 1 + zz * a;`, `zpl:6:10: undeclared name "zz"`},
		{`x := y@[1,0];`, `zpl:6:6: prime/@ applied to non-array "y"`},
		{`x := "s" + 1;`, `zpl:6:6: string in arithmetic expression`},
		{`[1..x+0.5, 1..n] a := 1;`, `zpl:6:1: expected an integer, got 0.5`},
		{`[1..a, 1..n] a := 1;`, `zpl:6:5: array "a" in scalar expression`},
		{`if 1 < foo(2) then x := 1; end;`, `zpl:6:8: unknown function "foo" (have: abs, exp, log, max, min, pow, sqrt)`},
		{`for k := 1 to 2.5 do x := 1; end;`, `zpl:6:1: expected an integer, got 2.5`},
		{`writeln(x + a);`, `zpl:6:13: array "a" in scalar expression`},
		{`[R] a := b@[x+0.5, 0];`, `zpl:6:10: expected an integer, got 0.5`},
	} {
		_, err := RunSource(pre+c.stmt, Options{Out: io.Discard})
		if err == nil || err.Error() != c.want {
			t.Errorf("%s\n  got  %v\n  want %s", c.stmt, err, c.want)
		}
	}
	it, err := RunSource(pre+"x := max(2, pow(3, 2)) / 4 - abs(-0.5) + sqrt(16) * n;", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := it.Env().Scalars["x"]; got != 9.0/4-0.5+16 {
		t.Errorf("x = %v, want %v", got, 9.0/4-0.5+16)
	}
}

func TestWritelnArray(t *testing.T) {
	var out strings.Builder
	_, err := RunSource(`
region R = [1..2, 1..2];
var a : [R] double;
[R] a := 7;
writeln("a:", a);
`, Options{Out: &out})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "7 7") {
		t.Errorf("array print = %q", out.String())
	}
}

func TestInterpRegionAccessors(t *testing.T) {
	it, err := RunSource(`
region R = [1..3, 2..4];
var a : [R] double;
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := it.Region("R")
	if !ok || !r.Equal(grid.MustRegion(grid.NewRange(1, 3), grid.NewRange(2, 4))) {
		t.Errorf("Region(R) = %v, %v", r, ok)
	}
	ra, ok := it.RegionOf("a")
	if !ok || !ra.Equal(r) {
		t.Errorf("RegionOf(a) = %v, %v", ra, ok)
	}
	if _, ok := it.RegionOf("zz"); ok {
		t.Error("RegionOf(zz) should fail")
	}
}

func TestVectorLiteralShift(t *testing.T) {
	it, err := RunSource(`
const n = 4;
region Big = [0..n, 1..n];
region R   = [1..n, 1..n];
var a : [Big] double;
[Big] a := 1;
[R] a := a'@[-1, 0] + 1;
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := it.Env().Arrays["a"]
	if a.At2(4, 2) != 5 { // 1 + 4 accumulating rows
		t.Errorf("a[4,2] = %g, want 5", a.At2(4, 2))
	}
}
