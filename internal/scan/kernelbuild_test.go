package scan

import (
	"testing"

	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
)

// A Kernel builds what its engine runs and nothing else: the tape, or the
// per-point closures for EngineClosure and for a block the tape refuses.
// These tests hold what that must not change: every refusal still comes at
// construction with the closure compiler's words, construction got cheaper
// by the closures it no longer builds, and the closure engine captures the
// scalars the tape captures.

// engineKernel builds b's kernel for engine e, as a Prepared part does under
// ExecOptions.Engine; NewKernelDeps builds the tape.
func engineKernel(b *Block, env expr.Env, udvs []dep.UDV, e Engine) (*Kernel, error) {
	k := &Kernel{}
	if err := k.init(b, env, udvs, true, e); err != nil {
		return nil, err
	}
	return k, nil
}

// TestConstructionErrorsUnchanged is every error NewKernel, NewKernelDeps
// and Prepare reported while init compiled the closures first (113eb6a),
// word for word, and the three cases that are not construction errors: an
// unbound destination and a field of another rank than the region, which
// the lowerer refuses and the closures accept (Prepare's bounds check
// refuses both first).
func TestConstructionErrorsUnchanged(t *testing.T) {
	bounds, region := grid.Square(2, 0, 9), grid.Square(2, 1, 8)
	newEnv := func() *expr.MapEnv {
		return &expr.MapEnv{Arrays: map[string]*field.Field{
			"a": field.MustNew("a", bounds, field.RowMajor),
			"b": field.MustNew("b", bounds, field.RowMajor),
			"v": field.MustNew("v", grid.MustRegion(grid.NewRange(0, 9)), field.RowMajor),
		}, Scalars: map[string]float64{"s": 2}}
	}
	ref := expr.Ref
	for _, c := range []struct {
		name    string
		lhs     string
		rhs     expr.Node
		kernel  string // NewKernel and NewKernelDeps, under any engine
		prepare string // Prepare, under either engine
	}{
		{"unbound array", "a", expr.AddN(ref("b"), ref("zz")),
			`expr: unbound array "zz"`, `scan: statement 0: array "zz" is unbound`},
		{"unbound scalar", "a", expr.MulN(expr.Scalar("q"), ref("b")),
			`expr: unbound scalar "q"`, `expr: unbound scalar "q"`},
		{"shift of another rank", "a", ref("b").At(grid.Direction{-1, 0, 0}),
			`expr: reference b@(-1,0,0) has shift rank 3, field rank 2`,
			`scan: statement 0: b@(-1,0,0): grid: mismatched ranks`},
		{"arity", "a", expr.Call{Fn: expr.Sqrt, Args: []expr.Node{ref("b"), ref("b")}},
			`expr: sqrt takes 1 arguments, got 2`,
			`scan: legality condition (iii): statement 0: expr: sqrt takes 1 arguments, got 2`},
		{"unknown intrinsic", "a", expr.Call{Fn: "nope", Args: []expr.Node{ref("b")}},
			`expr: unknown intrinsic "nope"`, `expr: unknown intrinsic "nope"`},
		{"bad unary operator", "a", expr.Unary{Op: expr.Add, X: ref("b")},
			`expr: bad unary op +`, `expr: bad unary op +`},
		{"bad binary operator", "a", expr.Binary{Op: expr.Neg, L: ref("b"), R: ref("b")},
			`expr: bad binary op -`, `expr: bad binary op -`},
		{"bad binary operator over constants", "a",
			expr.AddN(ref("b"), expr.Binary{Op: expr.Neg, L: expr.Const(1), R: expr.Const(2)}),
			`expr: bad binary op -`, `expr: bad binary op -`},
		{"unbound destination", "zz", ref("b"),
			``, `scan: statement 0: array "zz" is unbound`},
		{"field of another rank", "a", expr.AddN(ref("b"), ref("v")),
			``, `scan: statement 0: reference v reads [1..8, 1..8] outside bounds [0..9] of "v"`},
		{"shifted field of another rank", "a", expr.AddN(ref("b"), ref("v").At(grid.Direction{-1})),
			``, `scan: statement 0: v@(-1): grid: mismatched ranks`},
		{"legal", "a", expr.MulN(expr.Scalar("s"), ref("b")), ``, ``},
	} {
		blk := NewPlain(region, Stmt{LHS: ref(c.lhs), RHS: c.rhs})
		text := func(err error) string {
			if err == nil {
				return ""
			}
			return err.Error()
		}
		_, err := NewKernel(blk, newEnv())
		if got := text(err); got != c.kernel {
			t.Errorf("%s: NewKernel reports %q, want %q", c.name, got, c.kernel)
		}
		_, err = NewKernelDeps(blk, newEnv(), nil)
		if got := text(err); got != c.kernel {
			t.Errorf("%s: NewKernelDeps reports %q, want %q", c.name, got, c.kernel)
		}
		for _, e := range []Engine{EngineTape, EngineClosure, EngineScalar} {
			_, err = engineKernel(blk, newEnv(), nil, e)
			if got := text(err); got != c.kernel {
				t.Errorf("%s: the engine %d kernel reports %q, want %q", c.name, e, got, c.kernel)
			}
			_, err = Prepare(blk, newEnv(), ExecOptions{Engine: e})
			if got := text(err); got != c.prepare {
				t.Errorf("%s: Prepare (engine %d) reports %q, want %q", c.name, e, got, c.prepare)
			}
		}
	}
}

// tomcatvForward is the Figure 2(b) fragment over fresh, seeded n x n arrays.
func tomcatvForward(n int) (*Block, *expr.MapEnv) {
	blk, names := tomcatvFragment(n)
	env := env2(names, grid.Square(2, 1, n))
	seedTomcatv(env, n)
	return blk, env
}

// TestKernelConstructionAllocs: building the forward block's kernel allocated
// 68 times while it built the closures no tape run calls (25 of them) beside
// the tape; it builds one or the other now — 27 for the closures, and for
// the tape 43 while the statements were copied out for the lowerer and its
// tables grew a field at a time, 8 since: the Kernel and the lowering's
// seven tables (kernel.TestLowerAllocsUnchanged).
func TestKernelConstructionAllocs(t *testing.T) {
	blk, env := tomcatvForward(32)
	an, err := Analyze(blk, dep.Preference{PreferLow: true})
	if err != nil {
		t.Fatal(err)
	}
	const before = 68
	for _, c := range []struct {
		e       Engine
		ceiling float64
	}{{EngineTape, 8}, {EngineScalar, 8}, {EngineClosure, 27}} {
		e := c.e
		var k *Kernel
		if got := testing.AllocsPerRun(50, func() {
			if k, err = engineKernel(blk, env, an.UDVs, e); err != nil {
				t.Fatal(err)
			}
		}); got > c.ceiling {
			t.Errorf("engine %d: building the forward block's kernel allocates %v times, want at most %v (%d when it built tape and closures both)",
				e, got, c.ceiling, before)
		}
		if tape, closures := k.prog != nil, k.rhs != nil; tape == closures || closures != (e == EngineClosure) {
			t.Errorf("engine %d: the kernel holds a tape (%v) and closures (%v), want only what the engine runs", e, tape, closures)
		}
	}
}

// TestClosureEngineCapturesWhatTheTapeCaptured: a scalar changes after the
// block is prepared and before it first runs. The tape baked the old value
// in at construction and so did the closure engine's closures; Prepared notices the change at
// Run and compiles both again, so the two engines still agree bit for bit.
// (A pipeline.Rank watches its kernels' scalars the same way:
// TestSessionKeepsWhatARunDerives.)
func TestClosureEngineCapturesWhatTheTapeCaptured(t *testing.T) {
	const n = 24
	run := func(e Engine, change bool) (*expr.MapEnv, *Prepared) {
		blk, env := tomcatvForward(n)
		// Scale the first statement by a scalar so the block captures one.
		blk.Stmts[0].RHS = expr.MulN(expr.Scalar("w"), blk.Stmts[0].RHS)
		env.Scalars["w"] = 0.75
		p, err := Prepare(blk, env, ExecOptions{Engine: e})
		if err != nil {
			t.Fatal(err)
		}
		if change {
			env.Scalars["w"] = 1.25
		}
		if err := p.Run(blk.Region); err != nil {
			t.Fatal(err)
		}
		return env, p
	}
	for _, change := range []bool{false, true} {
		tape, pt := run(EngineTape, change)
		closure, pc := run(EngineClosure, change)
		wantBuilds := 1
		if change {
			wantBuilds = 2
		}
		if pt.builds != wantBuilds || pc.builds != wantBuilds {
			t.Errorf("change=%v: %d tape and %d closure compilations, want %d each", change, pt.builds, pc.builds, wantBuilds)
		}
		if pc.parts[0].kern.rhs == nil {
			t.Fatalf("change=%v: the closure engine runs without closures", change)
		}
		if tally := pc.parts[0].kern.PathCounts(); tally.Closure == 0 || tally.Closure != tally.Total() {
			t.Errorf("change=%v: closure leg tallied %v", change, tally)
		}
		for name, f := range tape.Arrays {
			if i := firstBitDiff(closure.Arrays[name], f); i >= 0 {
				t.Errorf("change=%v: %s[%d] = %v on closures, %v on the tape", change, name, i,
					closure.Arrays[name].Data()[i], f.Data()[i])
			}
		}
	}
}
