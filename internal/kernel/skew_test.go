package kernel

import (
	"testing"

	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
)

// skewCase is one recurrence whose dependences rule out span execution, so
// the tape must either run skewed hyperplane diagonals or walk point by
// point. The reference is the closure oracle (closureOracle: compiled
// right-hand sides, per point, in the derived loop order), which shares
// nothing with the tape; the tape's own point walk is checked against it
// too, as a third column.
type skewCase struct {
	name   string
	rank   int
	udvs   []dep.UDV
	node   expr.Node // recurrence over dst plus a src term
	loop   dep.LoopSpec
	wantCa int
	wantCb int
}

func skewCases() []skewCase {
	dstM := func(dist ...int) expr.Node { return expr.Ref("dst").At(grid.Direction(dist)) }
	add := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.Add, L: l, R: r} }
	return []skewCase{
		{
			// The Sweep3D plane restricted to rank 2: unit distances on
			// both axes, carried by the (1,1) diagonal.
			name: "unit diagonal", rank: 2,
			udvs: []dep.UDV{udv(1, 0), udv(0, 1)},
			node: add(add(dstM(-1, 0), dstM(0, -1)), expr.Ref("src")),
			loop: dep.Identity(2), wantCa: 1, wantCb: 1,
		},
		{
			// An anti-diagonal read forces the asymmetric (2,1) hyperplane,
			// exercising the modular-inverse congruence walk (Cb=1 keeps
			// one x-class; Ca=2 halves the run length).
			name: "general coefficients", rank: 2,
			udvs: []dep.UDV{udv(1, 0), udv(0, 1), udv(1, -1)},
			node: add(add(dstM(-1, 0), dstM(0, -1)), add(dstM(-1, 1), expr.Ref("src"))),
			loop: dep.Identity(2), wantCa: 2, wantCb: 1,
		},
		{
			// Swapped coefficients: reading dst[i+1][j-1] gives distance
			// (-1,1), legal under i-descending order, and the normalized
			// plane distances ((1,0) flips to... Dirs[0]=HighToLow flips
			// (−1,1) to (1,1) and (0,1) stays) admit the unit diagonal.
			name: "mixed directions", rank: 2,
			udvs:   []dep.UDV{udv(-1, 0), udv(0, 1), udv(-1, 1)},
			node:   add(add(dstM(1, 0), dstM(0, -1)), add(dstM(1, -1), expr.Ref("src"))),
			loop:   dep.LoopSpec{Perm: []int{0, 1}, Dirs: []grid.LoopDir{grid.HighToLow, grid.LowToHigh}},
			wantCa: 1, wantCb: 1,
		},
		{
			// Rank 3 Sweep3D shape: the outer loop carries dimension 0, the
			// inner pair (1,2) skews.
			name: "rank3 collapse", rank: 3,
			udvs: []dep.UDV{udv(1, 0, 0), udv(0, 1, 0), udv(0, 0, 1)},
			node: add(add(dstM(-1, 0, 0), dstM(0, -1, 0)), add(dstM(0, 0, -1), expr.Ref("src"))),
			loop: dep.Identity(3), wantCa: 1, wantCb: 1,
		},
	}
}

func skewEnv(rank, n int) *expr.MapEnv {
	bounds := grid.Square(rank, -1, n+1)
	env := &expr.MapEnv{
		Arrays: map[string]*field.Field{
			"src": field.MustNew("src", bounds, field.RowMajor),
			"dst": field.MustNew("dst", bounds, field.RowMajor),
		},
		Scalars: map[string]float64{},
	}
	env.Arrays["src"].FillFunc(bounds, func(p grid.Point) float64 {
		v := 0.5
		for d, x := range p {
			v += float64((d+1)*x) * 0.137
		}
		return v
	})
	env.Arrays["dst"].FillFunc(bounds, func(p grid.Point) float64 {
		v := 1.0
		for d, x := range p {
			v += float64((d+2)*x) * 0.071
		}
		return v
	})
	return env
}

// runSkew lowers the case against two identical environments, runs the
// first Program on its chosen path and the second on the forced point walk,
// and holds both to the closure oracle over the whole storage. It returns
// the chosen path.
func runSkew(t *testing.T, c skewCase, region grid.Region, n int) Path {
	t.Helper()
	lower := func(env *expr.MapEnv) *Program {
		pr, err := Lower(c.rank, stmts([]string{"dst"}, []expr.Node{c.node}), env, c.udvs)
		if err != nil {
			t.Fatalf("Lower: %v", err)
		}
		return pr
	}
	oracle := skewEnv(c.rank, n)
	closureOracle(oracle, []string{"dst"}, []expr.Node{c.node}, region, c.loop, false)
	want := oracle.Arrays["dst"]
	same := func(leg string, got *field.Field) {
		t.Helper()
		if p, differ := firstBitDiff(got.Bounds(), got, want); differ {
			t.Errorf("at %v: %s %v != closure oracle %v (region %v)", p, leg, got.At(p), want.At(p), region)
		}
	}
	envA, envB := skewEnv(c.rank, n), skewEnv(c.rank, n)
	path := lower(envA).Run(region, c.loop)
	same(path.String()+" run", envA.Arrays["dst"])
	lower(envB).RunScalar(region, c.loop)
	same("point walk", envB.Arrays["dst"])
	return path
}

// TestSkewedRecurrenceMatchesClosure pins the skewed executor: recurrences
// whose dependence structure forbids spans run as hyperplane diagonals, the
// derived coefficients match the decision table, and every point is
// bit-identical to the closure oracle's in-order execution.
func TestSkewedRecurrenceMatchesClosure(t *testing.T) {
	const n = 13
	for _, c := range skewCases() {
		t.Run(c.name, func(t *testing.T) {
			v := c.loop.Perm[c.rank-1]
			region := grid.Square(c.rank, 0, n)
			envP := skewEnv(c.rank, n)
			pr, err := Lower(c.rank, stmts([]string{"dst"}, []expr.Node{c.node}), envP, c.udvs)
			if err != nil {
				t.Fatalf("Lower: %v", err)
			}
			if pr.spanOK[v] {
				t.Fatalf("case is spannable along %d; it does not exercise the skew path", v)
			}
			if sk, ok := pr.skewFor(c.loop); !ok || sk.Ca != c.wantCa || sk.Cb != c.wantCb {
				t.Fatalf("derived hyperplane (%d,%d) ok=%v, want (%d,%d)", sk.Ca, sk.Cb, ok, c.wantCa, c.wantCb)
			}
			if path := runSkew(t, c, region, n); path != PathSkewed {
				t.Fatalf("Run took %v, want skewed", path)
			}
		})
	}
}

// TestSkewedDegenerateRegions covers the clipping edge cases: one-wide
// regions in either plane dimension (every wave is a length-1 run), a
// single point, and an empty region (no execution at all).
func TestSkewedDegenerateRegions(t *testing.T) {
	c := skewCases()[0]
	shapes := []struct {
		name string
		dims []grid.Range
	}{
		{"one-wide inner", []grid.Range{{Lo: 0, Hi: 9, Stride: 1}, {Lo: 4, Hi: 4, Stride: 1}}},
		{"one-wide outer", []grid.Range{{Lo: 4, Hi: 4, Stride: 1}, {Lo: 0, Hi: 9, Stride: 1}}},
		{"single point", []grid.Range{{Lo: 3, Hi: 3, Stride: 1}, {Lo: 5, Hi: 5, Stride: 1}}},
		{"empty", []grid.Range{{Lo: 3, Hi: 2, Stride: 1}, {Lo: 0, Hi: 9, Stride: 1}}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			if path := runSkew(t, c, grid.MustRegion(sh.dims...), 11); path != PathSkewed {
				t.Fatalf("Run took %v, want skewed", path)
			}
		})
	}
}

// TestPointWalkFallbacks pins the cases with neither a span nor a runnable
// skew to PathScalar — the tape walked one point at a time — and holds
// them to the closure oracle: a strided plane (the skew addressing assumes
// element-unit distances on both plane dimensions), a UDV set that admits
// no positive hyperplane, and a rank-1 recurrence, which has no second
// level to skew against.
func TestPointWalkFallbacks(t *testing.T) {
	dst := func(dist ...int) expr.Node { return expr.Ref("dst").At(grid.Direction(dist)) }
	add := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.Add, L: l, R: r} }
	strided := skewCases()[0]
	strided.name = "strided plane"
	cases := []struct {
		skewCase
		region grid.Region
	}{
		{strided, grid.MustRegion(grid.Range{Lo: 0, Hi: 10, Stride: 2}, grid.Range{Lo: 0, Hi: 10, Stride: 1})},
		{skewCase{
			name: "no legal skew", rank: 2,
			// The mirrored anti-diagonal pair refuses every candidate. The
			// expression itself is a plain stencil; only the declared UDVs
			// drive path selection.
			udvs: []dep.UDV{udv(0, 1), udv(1, -1), udv(-1, 1)},
			node: add(expr.Ref("src"), expr.Const(2)),
			loop: dep.Identity(2),
		}, grid.Square(2, 0, 11)},
		{skewCase{
			name: "rank-1 recurrence", rank: 1,
			udvs: []dep.UDV{udv(1)},
			node: add(dst(-1), expr.Ref("src")),
			loop: dep.Identity(1),
		}, grid.Square(1, 0, 11)},
		{skewCase{
			name: "rank-1 recurrence, descending", rank: 1,
			udvs: []dep.UDV{udv(-1)},
			node: add(dst(1), expr.Ref("src")),
			loop: dep.LoopSpec{Perm: []int{0}, Dirs: []grid.LoopDir{grid.HighToLow}},
		}, grid.Square(1, 0, 11)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if path := runSkew(t, c.skewCase, c.region, 11); path != PathScalar {
				t.Fatalf("Run took %v, want the point walk", path)
			}
		})
	}
}

// TestWalkZeroAlloc locks in the steady-state allocation contract of the
// one odometer under all three of its leaves: after the first run (which
// leases registers and, off the span path, caches the skew derivation)
// further runs allocate nothing — the traversal is a value on walk's
// stack, never a closure built per Run.
func TestWalkZeroAlloc(t *testing.T) {
	const n = 24
	general := skewCases()[1] // (2,1) coefficients
	rank3 := skewCases()[3]   // one odometer level above the waves
	spans := skewCase{
		name: "tomcatv-shaped spans", rank: 2,
		udvs: []dep.UDV{udv(1, 0)},
		node: expr.Binary{Op: expr.Add, L: expr.Ref("dst").At(grid.Direction{-1, 0}), R: expr.Ref("src")},
		loop: dep.Identity(2),
	}
	for _, c := range []struct {
		skewCase
		scalar bool
		want   Path
	}{
		{spans, false, PathSpan},
		{general, false, PathSkewed},
		{rank3, false, PathSkewed},
		{general, true, PathScalar},
		{rank3, true, PathScalar},
	} {
		env := skewEnv(c.rank, n)
		pr, err := Lower(c.rank, stmts([]string{"dst"}, []expr.Node{c.node}), env, c.udvs)
		if err != nil {
			t.Fatalf("Lower: %v", err)
		}
		region := grid.Square(c.rank, 0, n)
		run := func() Path { return pr.Run(region, c.loop) }
		if c.scalar {
			run = func() Path { pr.RunScalar(region, c.loop); return PathScalar }
		}
		if path := run(); path != c.want { // warm: lease + skew cache
			t.Fatalf("%s: Run took %v, want %v", c.name, path, c.want)
		}
		if a := testing.AllocsPerRun(10, func() { run() }); a != 0 {
			t.Errorf("%s on %v: steady-state run allocates %.0f times, want 0", c.name, c.want, a)
		}
	}
}
