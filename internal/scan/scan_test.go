package scan

import (
	"errors"
	"strings"
	"testing"

	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
)

func env2(names []string, bounds grid.Region) *expr.MapEnv {
	m := &expr.MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{}}
	for _, n := range names {
		m.Arrays[n] = field.MustNew(n, bounds, field.RowMajor)
	}
	return m
}

// TestFigure3 reproduces the matrices of Figure 3: a 5x5 array of 1s,
// region [2..n,1..n] covering a := 2*a@north (unprimed, result rows of 2s)
// versus a := 2*a'@north (primed, result rows 2,4,8,16).
func TestFigure3(t *testing.T) {
	n := 5
	bounds := grid.MustRegion(grid.NewRange(1, n), grid.NewRange(1, n))
	region := grid.MustRegion(grid.NewRange(2, n), grid.NewRange(1, n))
	north := grid.Direction{-1, 0}

	// Unprimed: every row doubles the ORIGINAL value above it.
	env := env2([]string{"a"}, bounds)
	env.Arrays["a"].Fill(1)
	blk := NewPlain(region, Stmt{
		LHS: expr.Ref("a"),
		RHS: expr.Binary{Op: expr.Mul, L: expr.Const(2), R: expr.Ref("a").At(north)},
	})
	if err := Exec(blk, env, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			want := 2.0
			if i == 1 {
				want = 1.0
			}
			if got := env.Arrays["a"].At2(i, j); got != want {
				t.Fatalf("unprimed: a[%d,%d] = %g, want %g", i, j, got, want)
			}
		}
	}

	// Primed: each row doubles the UPDATED value above it: 1,2,4,8,16.
	env = env2([]string{"a"}, bounds)
	env.Arrays["a"].Fill(1)
	blk = NewPlain(region, Stmt{
		LHS: expr.Ref("a"),
		RHS: expr.Binary{Op: expr.Mul, L: expr.Const(2), R: expr.Ref("a").At(north).Prime()},
	})
	if err := Exec(blk, env, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		want := float64(int(1) << (i - 1)) // 1,2,4,8,16
		for j := 1; j <= n; j++ {
			if got := env.Arrays["a"].At2(i, j); got != want {
				t.Fatalf("primed: a[%d,%d] = %g, want %g", i, j, got, want)
			}
		}
	}
}

// tomcatvFragment builds the scan block of Figure 2(b):
//
//	[2..n-2, 2..n-1] scan
//	  r  := aa*d'@north;
//	  d  := 1.0/(dd - aa@north*r);
//	  rx := rx - rx'@north*r;
//	  ry := ry - ry'@north*r;
//	end;
func tomcatvFragment(n int) (*Block, []string) {
	region := grid.MustRegion(grid.NewRange(2, n-2), grid.NewRange(2, n-1))
	return NewScan(region, tomcatvStmts(grid.Direction{-1, 0})...), tomcatvArrays
}

var tomcatvArrays = []string{"r", "aa", "d", "dd", "rx", "ry"}

// tomcatvStmts are the fragment's four statements, eliminating away from
// the neighbour at north.
func tomcatvStmts(north grid.Direction) []Stmt {
	return []Stmt{
		{LHS: expr.Ref("r"), RHS: expr.Binary{Op: expr.Mul, L: expr.Ref("aa"), R: expr.Ref("d").At(north).Prime()}},
		{LHS: expr.Ref("d"), RHS: expr.Binary{Op: expr.Div, L: expr.Const(1),
			R: expr.Binary{Op: expr.Sub, L: expr.Ref("dd"),
				R: expr.Binary{Op: expr.Mul, L: expr.Ref("aa").At(north), R: expr.Ref("r")}}}},
		{LHS: expr.Ref("rx"), RHS: expr.Binary{Op: expr.Sub, L: expr.Ref("rx"),
			R: expr.Binary{Op: expr.Mul, L: expr.Ref("rx").At(north).Prime(), R: expr.Ref("r")}}},
		{LHS: expr.Ref("ry"), RHS: expr.Binary{Op: expr.Sub, L: expr.Ref("ry"),
			R: expr.Binary{Op: expr.Mul, L: expr.Ref("ry").At(north).Prime(), R: expr.Ref("r")}}},
	}
}

func seedTomcatv(env *expr.MapEnv, n int) {
	all := grid.MustRegion(grid.NewRange(1, n), grid.NewRange(1, n))
	for name, f := range env.Arrays {
		name := name
		f.FillFunc(all, func(p grid.Point) float64 {
			v := 1.0 + 0.01*float64(p[0]) + 0.003*float64(p[1])
			switch name {
			case "dd":
				return v + 3 // keep the denominator away from zero
			case "aa":
				return 0.3 * v
			}
			return v
		})
	}
}

// tomcatvReference executes Figure 2(a): the explicit j-loop over rows with
// four plain array statements per row, the semantics the scan block must
// reproduce.
func tomcatvReference(env *expr.MapEnv, n int) error {
	north := grid.Direction{-1, 0}
	for j := 2; j <= n-2; j++ {
		row := grid.MustRegion(grid.NewRange(j, j), grid.NewRange(2, n-1))
		blk := NewPlain(row,
			Stmt{LHS: expr.Ref("r"), RHS: expr.Binary{Op: expr.Mul, L: expr.Ref("aa"), R: expr.Ref("d").At(north)}},
			Stmt{LHS: expr.Ref("d"), RHS: expr.Binary{Op: expr.Div, L: expr.Const(1),
				R: expr.Binary{Op: expr.Sub, L: expr.Ref("dd"),
					R: expr.Binary{Op: expr.Mul, L: expr.Ref("aa").At(north), R: expr.Ref("r")}}}},
			Stmt{LHS: expr.Ref("rx"), RHS: expr.Binary{Op: expr.Sub, L: expr.Ref("rx"),
				R: expr.Binary{Op: expr.Mul, L: expr.Ref("rx").At(north), R: expr.Ref("r")}}},
			Stmt{LHS: expr.Ref("ry"), RHS: expr.Binary{Op: expr.Sub, L: expr.Ref("ry"),
				R: expr.Binary{Op: expr.Mul, L: expr.Ref("ry").At(north), R: expr.Ref("r")}}},
		)
		if err := Exec(blk, env, ExecOptions{}); err != nil {
			return err
		}
	}
	return nil
}

// TestTomcatvScanMatchesExplicitLoop checks that the scan block of Figure
// 2(b) computes exactly what the explicit loop of Figure 2(a) computes.
func TestTomcatvScanMatchesExplicitLoop(t *testing.T) {
	n := 24
	bounds := grid.MustRegion(grid.NewRange(1, n), grid.NewRange(1, n))
	names := []string{"r", "aa", "d", "dd", "rx", "ry"}

	ref := env2(names, bounds)
	seedTomcatv(ref, n)
	if err := tomcatvReference(ref, n); err != nil {
		t.Fatal(err)
	}

	got := env2(names, bounds)
	seedTomcatv(got, n)
	blk, _ := tomcatvFragment(n)
	if err := Exec(blk, got, ExecOptions{}); err != nil {
		t.Fatal(err)
	}

	all := grid.MustRegion(grid.NewRange(1, n), grid.NewRange(1, n))
	for _, name := range names {
		if d := got.Arrays[name].MaxAbsDiff(all, ref.Arrays[name]); d > 1e-12 {
			t.Errorf("array %q differs from the explicit loop by %g", name, d)
		}
	}
}

func TestTomcatvAnalysis(t *testing.T) {
	blk, _ := tomcatvFragment(16)
	an, err := Analyze(blk, dep.Preference{PreferLow: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := an.WSV.String(); got != "(-,0)" {
		t.Errorf("WSV = %s, want (-,0)", got)
	}
	if dims := an.WavefrontDims(); len(dims) != 1 || dims[0] != 0 {
		t.Errorf("wavefront dims = %v, want [0]", dims)
	}
	if an.Loop.Dirs[0] != grid.LowToHigh {
		t.Errorf("dim0 %v, want low->high (north-to-south wavefront)", an.Loop.Dirs[0])
	}
}

// TestAnalyzeAllocsDoNotGrowWithReferences: the reference list, the UDVs
// with their distances and the primed directions are each sized by a count
// pass, and the loop derivation allocates only the nest it returns, so a
// statement of twelve references — four primed reads of the destination and
// eight reads of arrays the block does not write, shifted and not — analyzes
// in as many allocations as a statement of one primed read. (Before: one
// reference list grown by append, a writers map, a copy and a negation per
// primed shift, and the derivation's identity order and active list.)
func TestAnalyzeAllocsDoNotGrowWithReferences(t *testing.T) {
	region := grid.Square(2, 1, 8)
	one := NewScan(region, Stmt{LHS: expr.Ref("a"), RHS: expr.Ref("a").At(grid.North).Prime()})
	var rhs expr.Node
	for _, d := range []grid.Direction{{-1, -1}, {-1, 0}, {-1, 1}, {-2, 0}} {
		r := expr.Ref("a").At(d).Prime()
		if rhs == nil {
			rhs = r
			continue
		}
		rhs = expr.AddN(rhs, r)
	}
	for i, name := range []string{"b", "c", "d", "e", "f", "g", "h", "k"} {
		r := expr.Ref(name)
		if i%2 == 0 {
			r = r.At(grid.West)
		}
		rhs = expr.AddN(rhs, r)
	}
	twelve := NewScan(region, Stmt{LHS: expr.Ref("a"), RHS: rhs})
	if n := len(expr.Refs(rhs)); n != 12 {
		t.Fatalf("the wide statement has %d references, want 12", n)
	}
	count := func(b *Block) float64 {
		var err error
		got := testing.AllocsPerRun(50, func() { _, err = Analyze(b, preferLow) })
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if a, b := count(one), count(twelve); a != b {
		t.Errorf("Analyze allocates %v times for 1 reference and %v for 12, want the same", a, b)
	}
}

func TestLegalityConditionI(t *testing.T) {
	region := grid.Square(2, 2, 8)
	// b is primed but never defined in the block.
	blk := NewScan(region, Stmt{
		LHS: expr.Ref("a"),
		RHS: expr.Ref("b").At(grid.North).Prime(),
	})
	_, err := Analyze(blk, dep.Preference{})
	var le *LegalityError
	if !errors.As(err, &le) || le.Condition != 1 {
		t.Fatalf("err = %v, want legality condition (i)", err)
	}
	if !strings.Contains(err.Error(), "(i)") {
		t.Errorf("message %q should cite condition (i)", err)
	}
}

func TestOverconstrainedScanRejected(t *testing.T) {
	region := grid.Square(2, 2, 8)
	blk := NewScan(region, Stmt{
		LHS: expr.Ref("a"),
		RHS: expr.Binary{Op: expr.Add,
			L: expr.Ref("a").At(grid.West).Prime(),
			R: expr.Ref("a").At(grid.East).Prime()},
	})
	_, err := Analyze(blk, dep.Preference{})
	if !errors.Is(err, ErrOverconstrained) {
		t.Fatalf("err = %v, want ErrOverconstrained", err)
	}
}

func TestPrimedOutsideScanRestricted(t *testing.T) {
	region := grid.Square(2, 2, 8)
	// A plain statement may prime only its own target.
	blk := NewPlain(region, Stmt{
		LHS: expr.Ref("a"),
		RHS: expr.Ref("b").At(grid.North).Prime(),
	})
	if _, err := Analyze(blk, dep.Preference{}); err == nil {
		t.Fatal("priming another array outside a scan block must fail")
	}
}

func TestShiftedLHSRejected(t *testing.T) {
	region := grid.Square(2, 2, 8)
	blk := NewPlain(region, Stmt{LHS: expr.Ref("a").At(grid.North), RHS: expr.Const(1)})
	if _, err := Analyze(blk, dep.Preference{}); err == nil {
		t.Fatal("shifted LHS must fail")
	}
}

// TestAntiPairUsesTemp: a := a@west + a@east is legal as a plain statement
// (array semantics) but has no in-place loop order; the executor must fall
// back to a temporary and produce the mathematically right values.
func TestAntiPairUsesTemp(t *testing.T) {
	n := 6
	bounds := grid.MustRegion(grid.NewRange(0, n+1), grid.NewRange(0, n+1))
	region := grid.Square(2, 1, n)
	env := env2([]string{"a"}, bounds)
	env.Arrays["a"].FillFunc(bounds, func(p grid.Point) float64 {
		return float64(p[0]*10 + p[1])
	})
	orig := env.Arrays["a"].Clone()

	blk := NewPlain(region, Stmt{
		LHS: expr.Ref("a"),
		RHS: expr.Binary{Op: expr.Add,
			L: expr.Ref("a").At(grid.West),
			R: expr.Ref("a").At(grid.East)},
	})
	an, err := Analyze(blk, dep.Preference{PreferLow: true})
	if err != nil {
		t.Fatal(err)
	}
	if !an.NeedsTemp() {
		t.Fatal("analysis should require a temporary")
	}
	if err := Exec(blk, env, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	region.Each(nil, func(p grid.Point) {
		i, j := p[0], p[1]
		want := orig.At2(i, j-1) + orig.At2(i, j+1)
		if got := env.Arrays["a"].At2(i, j); got != want {
			t.Fatalf("a[%d,%d] = %g, want %g", i, j, got, want)
		}
	})
}

// TestForceTempMatchesInPlace: when an in-place order exists, the temp-
// buffer ablation path must produce identical results.
func TestForceTempMatchesInPlace(t *testing.T) {
	n := 8
	bounds := grid.MustRegion(grid.NewRange(0, n+1), grid.NewRange(0, n+1))
	region := grid.Square(2, 1, n)
	mk := func() *expr.MapEnv {
		e := env2([]string{"a"}, bounds)
		e.Arrays["a"].FillFunc(bounds, func(p grid.Point) float64 {
			return float64(p[0]) + 0.5*float64(p[1])
		})
		return e
	}
	blk := NewPlain(region, Stmt{
		LHS: expr.Ref("a"),
		RHS: expr.Binary{Op: expr.Mul, L: expr.Const(2), R: expr.Ref("a").At(grid.North)},
	})
	a := mk()
	if err := Exec(blk, a, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	b := mk()
	if err := Exec(blk, b, ExecOptions{ForceTemp: true}); err != nil {
		t.Fatal(err)
	}
	if d := a.Arrays["a"].MaxAbsDiff(region, b.Arrays["a"]); d != 0 {
		t.Errorf("in-place and temp paths differ by %g", d)
	}
}

func TestBoundsChecked(t *testing.T) {
	// Region touches the array edge; @north reads out of bounds.
	n := 5
	bounds := grid.Square(2, 1, n)
	region := grid.Square(2, 1, n)
	env := env2([]string{"a"}, bounds)
	blk := NewPlain(region, Stmt{
		LHS: expr.Ref("a"),
		RHS: expr.Ref("a").At(grid.North),
	})
	if err := Exec(blk, env, ExecOptions{}); err == nil {
		t.Fatal("out-of-bounds shift must be rejected")
	}
}

func TestScalarCapture(t *testing.T) {
	n := 4
	bounds := grid.Square(2, 1, n)
	env := env2([]string{"a"}, bounds)
	env.Scalars["c"] = 3
	blk := NewPlain(bounds, Stmt{LHS: expr.Ref("a"), RHS: expr.Scalar("c")})
	if err := Exec(blk, env, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := env.Arrays["a"].At2(2, 2); got != 3 {
		t.Errorf("a = %g, want 3", got)
	}
}

// TestNonPrimedEarlierWriterFused: a non-primed unshifted reference to an
// array written by an earlier statement in a scan block must observe the
// earlier statement's value at the same point (the Tomcatv r pattern).
func TestNonPrimedEarlierWriterFused(t *testing.T) {
	n := 6
	bounds := grid.MustRegion(grid.NewRange(0, n), grid.NewRange(1, n))
	region := grid.MustRegion(grid.NewRange(1, n), grid.NewRange(1, n))
	env := env2([]string{"r", "d"}, bounds)
	env.Arrays["d"].Fill(1)
	env.Arrays["r"].Fill(0)
	blk := NewScan(region,
		Stmt{LHS: expr.Ref("r"), RHS: expr.Binary{Op: expr.Add, L: expr.Ref("d").At(grid.North).Prime(), R: expr.Const(1)}},
		Stmt{LHS: expr.Ref("d"), RHS: expr.Ref("r")},
	)
	if err := Exec(blk, env, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	// Row 1: r = d[0,*]+1 = 2, d = 2. Row i: d_i = d_{i-1}+1 = i+1.
	for i := 1; i <= n; i++ {
		if got := env.Arrays["d"].At2(i, 3); got != float64(i+1) {
			t.Errorf("d[%d] = %g, want %d", i, got, i+1)
		}
	}
}

func TestEmptyBlockRejected(t *testing.T) {
	if _, err := Analyze(&Block{Kind: ScanKind, Region: grid.Square(2, 1, 4)}, dep.Preference{}); err == nil {
		t.Error("empty block must fail analysis")
	}
}

func TestBlockString(t *testing.T) {
	blk, _ := tomcatvFragment(8)
	s := blk.String()
	for _, want := range []string{"scan", "d'@(-1,0)", "r := "} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}
