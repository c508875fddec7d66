package wavefront_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"wavefront"
)

// TestPublicAPIQuickstart drives the facade end to end: build the Figure
// 3(d) statement, analyze it, execute serially, execute pipelined, compare.
func TestPublicAPIQuickstart(t *testing.T) {
	const n = 8
	mk := func() *wavefront.Env {
		env := wavefront.NewEnv()
		a, err := wavefront.NewArrayIn(env, "a", wavefront.Box(0, n, 1, n))
		if err != nil {
			t.Fatal(err)
		}
		a.Fill(1)
		return env
	}
	block := wavefront.Scan(wavefront.Box(1, n, 1, n),
		wavefront.Assign("a",
			wavefront.Mul(wavefront.Num(2), wavefront.At("a", wavefront.North).Prime())),
	)

	an, err := wavefront.Analyze(block)
	if err != nil {
		t.Fatal(err)
	}
	if got := an.WSV.String(); got != "(-,0)" {
		t.Errorf("WSV = %s", got)
	}

	serial := mk()
	if err := wavefront.Exec(block, serial); err != nil {
		t.Fatal(err)
	}
	if got := serial.Arrays["a"].At2(4, 3); got != 16 {
		t.Errorf("a[4,3] = %g, want 16", got)
	}

	par := mk()
	stats, err := wavefront.RunPipelined(block, par, wavefront.Pipeline{Procs: 4, Block: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Comm.Messages == 0 {
		t.Error("pipelined run sent no messages")
	}
	region := wavefront.Box(1, n, 1, n)
	if d := par.Arrays["a"].MaxAbsDiff(region, serial.Arrays["a"]); d != 0 {
		t.Errorf("parallel differs by %g", d)
	}
}

// TestPublicAPIPrepare is the README's shrinking-region example: one
// Prepare, one Run per step, against an Exec of a fresh block per step; a
// scalar the statement names is followed, and a region outside the array
// is refused without spoiling the handle.
func TestPublicAPIPrepare(t *testing.T) {
	const n = 8
	mk := func() *wavefront.Env {
		env := wavefront.NewEnv()
		a, err := wavefront.NewArrayIn(env, "a", wavefront.Box(0, n, 0, n))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= n; i++ {
			for j := 0; j <= n; j++ {
				a.Set2(i, j, float64(i*n+j)/7)
			}
		}
		env.Scalars["w"] = 0.5
		return env
	}
	update := func(region wavefront.Region) *wavefront.Block {
		return wavefront.Scan(region,
			wavefront.Assign("a", wavefront.Sub(wavefront.Ref("a"),
				wavefront.Mul(wavefront.Var("w"), wavefront.At("a", wavefront.North).Prime()))))
	}
	held, fresh := mk(), mk()
	p, err := wavefront.Prepare(update(wavefront.Box(1, n, 1, n)), held)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < n; k++ {
		if k == 4 {
			held.Scalars["w"], fresh.Scalars["w"] = 0.25, 0.25
			if err := p.Run(wavefront.Box(k, n+1, k, n)); err == nil || !strings.Contains(err.Error(), "outside bounds") {
				t.Errorf("a region past the array: err = %v, want the bounds refusal", err)
			}
		}
		region := wavefront.Box(k, n, k, n)
		if err := p.Run(region); err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
		if err := wavefront.Exec(update(region), fresh); err != nil {
			t.Fatal(err)
		}
		for i, want := range fresh.Arrays["a"].Data() {
			if got := held.Arrays["a"].Data()[i]; got != want {
				t.Fatalf("step %d: element %d = %v, a fresh Exec gives %v", k, i, got, want)
			}
		}
	}
}

func TestPublicAPIExpressions(t *testing.T) {
	const n = 4
	env := wavefront.NewEnv()
	for _, name := range []string{"a", "b"} {
		f, err := wavefront.NewArrayLayout(env, name, wavefront.Box(1, n, 1, n), wavefront.ColMajor)
		if err != nil {
			t.Fatal(err)
		}
		f.Fill(4)
	}
	env.Scalars["c"] = 3
	block := wavefront.Plain(wavefront.Box(1, n, 1, n),
		wavefront.Assign("a", wavefront.Max(
			wavefront.Sqrt(wavefront.Ref("b")),
			wavefront.Sub(wavefront.Sum(wavefront.Num(1), wavefront.Var("c")),
				wavefront.Div(wavefront.Ref("b"), wavefront.Num(2))))),
	)
	if err := wavefront.Exec(block, env); err != nil {
		t.Fatal(err)
	}
	// max(sqrt(4), (1+3) - 4/2) = max(2, 2) = 2
	if got := env.Arrays["a"].At2(2, 2); got != 2 {
		t.Errorf("a = %g, want 2", got)
	}
	neg := wavefront.Plain(wavefront.Box(1, n, 1, n),
		wavefront.Assign("a", wavefront.Neg(wavefront.Min(wavefront.Ref("a"), wavefront.Num(1)))))
	if err := wavefront.Exec(neg, env); err != nil {
		t.Fatal(err)
	}
	if got := env.Arrays["a"].At2(2, 2); got != -1 {
		t.Errorf("a = %g, want -1", got)
	}
}

func TestPublicAPIModel(t *testing.T) {
	m := wavefront.NewModel(1500, 72)
	if b := wavefront.OptimalBlock(m, 250, 8); int(b+0.5) != 23 {
		t.Errorf("optimal block = %g, want ~23", b)
	}
}

func TestPublicAPIZPL(t *testing.T) {
	var out bytes.Buffer
	it, err := wavefront.RunZPL(`
const n = 4;
region R = [1..n, 1..n];
var a : [R] double;
[R] a := 7;
writeln("sum element:", a);
`, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "7 7 7 7") {
		t.Errorf("output = %q", out.String())
	}
	if it.Env().Arrays["a"].At2(1, 1) != 7 {
		t.Error("array state not exposed")
	}
}

func TestPublicAPIIllegalBlock(t *testing.T) {
	const n = 4
	env := wavefront.NewEnv()
	if _, err := wavefront.NewArrayIn(env, "a", wavefront.Box(0, n+1, 0, n+1)); err != nil {
		t.Fatal(err)
	}
	block := wavefront.Scan(wavefront.Box(1, n, 1, n),
		wavefront.Assign("a", wavefront.Add(
			wavefront.At("a", wavefront.West).Prime(),
			wavefront.At("a", wavefront.East).Prime())),
	)
	if _, err := wavefront.Analyze(block); err == nil {
		t.Error("over-constrained block must be rejected")
	}
	if err := wavefront.Exec(block, env); err == nil {
		t.Error("executing an illegal block must fail")
	}
}

func TestRegionHelpers(t *testing.T) {
	r, err := wavefront.NewRegion(wavefront.Span(1, 3), wavefront.Span(2, 5))
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 12 {
		t.Errorf("size = %d", r.Size())
	}
	if !wavefront.Box(1, 3, 2, 5).Equal(r) {
		t.Error("Box and NewRegion disagree")
	}
}

func TestPublicAPIReduce(t *testing.T) {
	const n = 6
	env := wavefront.NewEnv()
	a, err := wavefront.NewArrayIn(env, "a", wavefront.Box(1, n, 1, n))
	if err != nil {
		t.Fatal(err)
	}
	a.Fill(2)
	region := wavefront.Box(1, n, 1, n)
	sum, err := wavefront.Reduce(wavefront.SumReduce, region, wavefront.Ref("a"), env)
	if err != nil {
		t.Fatal(err)
	}
	if sum != 2*n*n {
		t.Errorf("sum = %g, want %d", sum, 2*n*n)
	}
	if _, err := wavefront.Reduce(wavefront.MaxReduce, region,
		wavefront.At("a", wavefront.North).Prime(), env); err == nil {
		t.Error("primed reduction operand must fail (condition v)")
	}
}

func TestPublicAPISession(t *testing.T) {
	const n = 12
	env := wavefront.NewEnv()
	a, err := wavefront.NewArrayIn(env, "a", wavefront.Box(0, n, 1, n))
	if err != nil {
		t.Fatal(err)
	}
	a.Fill(1)
	region := wavefront.Box(1, n, 1, n)
	block := wavefront.Scan(region,
		wavefront.Assign("a", wavefront.Add(
			wavefront.Mul(wavefront.Num(0.5), wavefront.At("a", wavefront.North).Prime()),
			wavefront.Num(0.25))))
	sess, err := wavefront.NewSession(env, []*wavefront.Block{block},
		wavefront.SessionConfig{Procs: 3, Domain: region, Block: 4})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	err = sess.Run(func(r *wavefront.Rank) error {
		for i := 0; i < 3; i++ {
			if err := r.Exec(block); err != nil {
				return err
			}
		}
		v, err := r.Reduce(wavefront.SumReduce, region, wavefront.Ref("a"))
		if err != nil {
			return err
		}
		if r.ID() == 0 {
			total = v
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	refEnv := wavefront.NewEnv()
	ra, _ := wavefront.NewArrayIn(refEnv, "a", wavefront.Box(0, n, 1, n))
	ra.Fill(1)
	for i := 0; i < 3; i++ {
		if err := wavefront.Exec(block, refEnv); err != nil {
			t.Fatal(err)
		}
	}
	if d := env.Arrays["a"].MaxAbsDiff(region, refEnv.Arrays["a"]); d != 0 {
		t.Errorf("session differs from serial by %g", d)
	}
	want, _ := wavefront.Reduce(wavefront.SumReduce, region, wavefront.Ref("a"), refEnv)
	if total != want {
		t.Errorf("reduced total = %g, want %g", total, want)
	}
}

func TestPublicAPIZPLParallel(t *testing.T) {
	var out bytes.Buffer
	it, err := wavefront.RunZPLParallel(`
const n = 6;
region R = [1..n, 1..n];
var a : [R] double;
var s : double;
[R] a := 2;
[R] s := +<< a;
writeln("s =", s);
`, &out, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "s = 72") {
		t.Errorf("output = %q", out.String())
	}
	if it.Env().Scalars["s"] != 72 {
		t.Errorf("scalar s = %g", it.Env().Scalars["s"])
	}
}

// TestPublicAPITracing drives the observability surface end to end: a
// traced pipelined run yields a per-rank summary, validates against the
// wavefront safety invariant, and exports a Chrome trace that decodes as
// JSON; an untraced run (the default) yields no summary.
func TestPublicAPITracing(t *testing.T) {
	const n = 16
	env := wavefront.NewEnv()
	a, err := wavefront.NewArrayIn(env, "a", wavefront.Box(0, n, 1, n))
	if err != nil {
		t.Fatal(err)
	}
	a.Fill(1)
	block := wavefront.Scan(wavefront.Box(1, n, 1, n),
		wavefront.Assign("a",
			wavefront.Mul(wavefront.Num(0.5), wavefront.At("a", wavefront.North).Prime())),
	)

	rec := wavefront.NewTraceRecorder(3)
	stats, err := wavefront.RunPipelined(block, env, wavefront.Pipeline{Procs: 3, Block: 4, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Summary == nil {
		t.Fatal("traced run returned nil Summary")
	}
	if stats.Summary.Procs != 3 {
		t.Errorf("Summary.Procs = %d, want 3", stats.Summary.Procs)
	}
	if !strings.Contains(stats.Summary.String(), "rank") {
		t.Errorf("summary table missing rank column:\n%s", stats.Summary)
	}
	if err := wavefront.ValidateTrace(rec); err != nil {
		t.Errorf("safe schedule failed validation: %v", err)
	}
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v", err)
	}
	if len(decoded.TraceEvents) == 0 {
		t.Error("Chrome export has no events")
	}

	// Tracing is opt-in: the zero-value Pipeline records nothing.
	untraced, err := wavefront.RunPipelined(block, env, wavefront.Pipeline{Procs: 3, Block: 4})
	if err != nil {
		t.Fatal(err)
	}
	if untraced.Summary != nil {
		t.Error("untraced run returned a non-nil Summary")
	}
}
