package zpl

import (
	"bytes"
	"strings"
	"testing"
)

const walkerDecls = `
const n = 6;
const k = 3;
region R = [1..n, 1..n];
var a, b : [R] double;
var x, s : double;
`

// walkerRefusals are programs with array work that the serial interpreter
// refuses at a statement exec reaches. The first five ran to completion in
// parallel mode while rankExec had a statement switch of its own; the rest
// pin the scope of a loop variable, which that switch never closed.
var walkerRefusals = []errorCase{
	{"fractional loop bound", walkerDecls + `
x := 2.5;
[R] a := 1;
for i := 1 to x do [R] a := a + 1; end;`, "expected an integer, got 2.5"},
	{"assign constant", walkerDecls + `
[R] a := k;
k := 7;
[R] b := a;`, "cannot assign to constant"},
	{"reduce into array", walkerDecls + `
[R] a := 1;
[R] b := +<< a;`, "must be a scalar"},
	{"assign undeclared", walkerDecls + `
[R] a := 1;
zz := 4;
[R] b := a;`, "assignment to undeclared name"},
	{"loop variable shadows constant", walkerDecls + `
[R] a := 0;
for k := 1 to 2 do [R] a := a + 1; end;`, "shadows a constant"},
	{"loop variable read after its loop", walkerDecls + `
[R] a := 0;
for i := 1 to 2 do [R] a := a + 1; end;
x := i;
[R] b := a;`, `undeclared name "i"`},
	{"loop variable assigned before its loop", walkerDecls + `
[R] a := 0;
i := 3;
for i := 1 to 2 do [R] a := a + 1; end;`, "assignment to undeclared name"},
	{"loop variable in a block after its loop", walkerDecls + `
[R] a := 0;
for i := 1 to 2 do [R] a := a + 1; end;
[R] b := a + i;`, `undeclared name "i"`},
	{"loop variable reduced after its loop", walkerDecls + `
[R] a := 0;
for i := 1 to 2 do [R] a := a + 1; end;
[R] s := +<< a * i;`, `undeclared name "i"`},
}

// walkerLegal are programs both modes must run, printing the same bytes.
var walkerLegal = []struct{ name, src string }{
	{"control flow around reductions", walkerDecls + `
[R] a := 1;
x := 0;
for i := 1 to 3 do
  [R] a := a + 1;
  [R] s := +<< a;
  if s > 80 and not (i = 2) then x := x + 1; else x := x - 1; end;
  writeln("trip", i, s, x);
end;
repeat
  [R] a := a / 2;
  [R] s := max<< a;
until s < 1;
writeln(s, x);
writeln(a);`},
	{"declared scalar as loop variable", walkerDecls + `
x := 7;
for x := 3 downto 2 do
  [R] a := a + 1;
  writeln(x);
end;
writeln(x);
[R] b := a;
writeln(b);`},
	// Every trip changes x and i, which two blocks read: each rank lowers
	// them again, as the interpreter does.
	{"scalar a block reads changes", walkerDecls + `
direction north = [-1, 0];
[R] a := 1;
[R] b := 0;
x := 1;
for i := 1 to 3 do
  x := x + 1;
  [R] a := a * x;
  [2..n, 1..n] b := x * b'@north + a + i;
  [R] s := +<< b;
  writeln(i, x, s);
end;
writeln(a);`},
}

// TestOneWalkerBothModes holds parallel mode to the serial interpreter
// statement by statement: what one refuses the other refuses with the same
// diagnostic (a rank's error arrives wrapped by the session), and what both
// run prints the same bytes. The error tables of the other tests ride
// along wherever they have array work — without it RunParallel is the
// serial interpreter anyway.
func TestOneWalkerBothModes(t *testing.T) {
	refusals := append([]errorCase{}, walkerRefusals...)
	refusals = append(refusals, semanticErrorCases...)
	refusals = append(refusals, reductionErrorCases...)
	for _, src := range controlFlowErrorSrcs {
		refusals = append(refusals, errorCase{name: src, src: src})
	}
	ran := 0
	for _, c := range refusals {
		if !hasArrayWork(c.src) {
			continue
		}
		ran++
		_, serial := RunSource(c.src, Options{})
		if serial == nil || !strings.Contains(serial.Error(), c.wantSub) {
			t.Errorf("%s: serial err = %v, want substring %q", c.name, serial, c.wantSub)
			continue
		}
		for _, p := range []int{1, 2, 3} {
			_, err := RunParallelSource(c.src, Options{}, p, 0)
			if err == nil || !strings.Contains(err.Error(), serial.Error()) {
				t.Errorf("%s: p=%d err = %v, want the serial diagnostic %q", c.name, p, err, serial)
			}
		}
	}
	if want := len(walkerRefusals) + 10; ran != want {
		t.Errorf("%d refusal programs had array work, want %d: a table lost its cases", ran, want)
	}
	for _, c := range walkerLegal {
		var serial bytes.Buffer
		if _, err := RunSource(c.src, Options{Out: &serial}); err != nil {
			t.Errorf("%s: serial: %v", c.name, err)
			continue
		}
		for _, p := range []int{1, 2, 3} {
			var par bytes.Buffer
			if _, err := RunParallelSource(c.src, Options{Out: &par}, p, 0); err != nil {
				t.Errorf("%s: p=%d: %v", c.name, p, err)
			} else if !bytes.Equal(par.Bytes(), serial.Bytes()) {
				t.Errorf("%s: p=%d printed\n%s\nserial printed\n%s", c.name, p, par.Bytes(), serial.Bytes())
			}
		}
	}
}

// hasArrayWork reports whether src parses and has a statement RunParallel
// would give to a session.
func hasArrayWork(src string) bool {
	prog, err := Parse(src)
	if err != nil {
		return false
	}
	it := New(Options{})
	for _, d := range prog.Decls {
		if err := it.declare(d); err != nil {
			return false
		}
	}
	for _, s := range prog.Stmts {
		if containsArrayWork(s, it) {
			return true
		}
	}
	return false
}
