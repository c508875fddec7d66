package main

import (
	"math"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"testing"

	"wavefront"
	"wavefront/internal/metrics"
	"wavefront/internal/scan"
)

// The benchmark's self-test: small sizes, three ops per workload. It pins
// the contract with BENCHMARK.json, proves the correctness check is not
// vacuous, and pins the oracles against the closure reference engine.

func smallEnv(t *testing.T) env {
	t.Helper()
	root, err := findRepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	return env{sz: smallSizes, seed: 7, workDir: t.TempDir(), repoRoot: root}
}

func names(ms []metric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.name)
	}
	sort.Strings(out)
	return out
}

func specNames(ms []specMetric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// TestNamesMatchSpec checks that the emitted workload and metric names are
// exactly BENCHMARK.json's, and well-formed.
func TestNamesMatchSpec(t *testing.T) {
	e := smallEnv(t)
	sp, err := readSpec(e.repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var specWorkloads []string
	for _, w := range sp.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	if !slices.Equal(specWorkloads, workloadNames) {
		t.Fatalf("workloads: BENCHMARK.json has %v, the driver has %v", specWorkloads, workloadNames)
	}
	probes, err := runProbes(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		if !wellFormed.MatchString(w) {
			t.Errorf("workload name %q is malformed", w)
		}
		timed, err := runTimed(w, e, limit{maxOps: 3})
		if err != nil {
			t.Fatal(err)
		}
		if timed.failed != 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w, timed.failed, timed.attempted, timed.firstErr)
		}
		if got, want := names(timed.metrics), specNames(sp.EndToEnd); !slices.Equal(got, want) {
			t.Errorf("%s end-to-end metrics:\n got  %v\n want %v", w, got, want)
		}
		for _, m := range timed.metrics {
			if m.value <= 0 || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				t.Errorf("%s %s = %v: an end-to-end metric must be a positive number", w, m.name, m.value)
			}
		}
		traced, err := runObserved(w, e, limit{maxOps: 3}, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if traced.failed != 0 {
			t.Errorf("%s traced: %d of %d ops failed: %v", w, traced.failed, traced.attempted, traced.firstErr)
		}
		all := append(append([]metric(nil), traced.metrics...), probes...)
		if got, want := names(all), specNames(sp.PerLayer); !slices.Equal(got, want) {
			t.Errorf("%s per-layer metrics:\n got  %v\n want %v", w, got, want)
		}
		for _, m := range all {
			if !wellFormed.MatchString(m.name) {
				t.Errorf("metric name %q is malformed", m.name)
			}
			if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
				t.Errorf("%s %s = %v", w, m.name, m.value)
			}
		}
	}
}

// TestCorruptedOutputIsAFailedOp flips one bit of one output after every op
// and expects every op to be counted as failed.
func TestCorruptedOutputIsAFailedOp(t *testing.T) {
	e := smallEnv(t)
	for _, w := range workloadNames {
		in, err := setUp(w, e)
		if err != nil {
			t.Fatal(err)
		}
		p := runPass(in, nil, limit{maxOps: 3}, passHooks{after: in.flipBit})
		in.close()
		if p.attempted == 0 || p.failed != p.attempted || len(p.samples) != 0 {
			t.Errorf("%s: %d of %d corrupted ops counted as failed, %d samples kept", w, p.failed, p.attempted, len(p.samples))
		}
	}
}

// TestAssertedPathMustExecute checks that a kernel workload's path guard
// refuses a block that runs on another path.
func TestAssertedPathMustExecute(t *testing.T) {
	e := smallEnv(t)
	s, err := newSweep(e.sz.sweepN, e.seed)
	if err != nil {
		t.Fatal(err)
	}
	octant := s.OctantBlock(s.Octants()[0])
	if err := requirePath(octant, s.Env, metrics.KernelPathSkewed); err != nil {
		t.Errorf("sweep octant on its own path: %v", err)
	}
	if err := requirePath(octant, s.Env, metrics.KernelPathSpan); err == nil {
		t.Error("requirePath accepted the span path for a block that runs skewed")
	}
}

// TestLadderFitsItsOp checks that the legs the cold ladder sums — plan,
// topology build and the parallel section — do not exceed the op they
// decompose. Plan and topology are medians of standalone repeats, not the
// op's own, and the three cover the whole op to within a percent, so the sum
// can land a hair over: thirty runs of this test read -0.004 to +0.027. The
// floor is five times that undershoot.
func TestLadderFitsItsOp(t *testing.T) {
	p := &prober{e: smallEnv(t)}
	p.coldLadder()
	if p.err != nil {
		t.Fatal(p.err)
	}
	for _, m := range p.out {
		if m.name == "pipeline.unattributed_share" {
			if m.value < -0.02 || m.value >= 1 {
				t.Errorf("pipeline.unattributed_share = %v: legs exceed the op", m.value)
			}
			return
		}
	}
	t.Error("pipeline.unattributed_share was not reported")
}

// TestOraclesMatchClosureEngine pins the handwritten loops against the
// per-point closure engine, the program's own reference path.
func TestOraclesMatchClosureEngine(t *testing.T) {
	e := smallEnv(t)
	closure := scan.ExecOptions{Engine: scan.EngineClosure}
	tom, o, err := newTomcatv(e.sz.bigN, e.seed)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name   string
		blocks []*wavefront.Block
		oracle func()
	}{
		{"forward", []*wavefront.Block{tom.ForwardBlock()}, o.forward},
		{"backward", []*wavefront.Block{tom.BackwardBlock()}, o.backward},
		{"iteration", tom.Blocks(), o.iteration},
	}
	for _, st := range steps {
		for _, b := range st.blocks {
			if err := scan.Exec(b, tom.Env, closure); err != nil {
				t.Fatal(err)
			}
		}
		st.oracle()
		for name, want := range o.arrays() {
			if k := firstMismatch(tom.Env.Arrays[name].Data(), want); k >= 0 {
				t.Fatalf("tomcatv %s: %s[%d] differs from the closure engine", st.name, name, k)
			}
		}
	}
	s, err := newSweep(e.sz.sweepN, e.seed)
	if err != nil {
		t.Fatal(err)
	}
	flux := s.Env.Arrays["flux"]
	want := append([]float64(nil), flux.Data()...)
	sweepOctantOracle(s.N, want, s.Env.Arrays["src"].Data(), s.Mu, s.Eta, s.Xi, s.Sigma)
	if err := scan.Exec(s.OctantBlock(s.Octants()[0]), s.Env, closure); err != nil {
		t.Fatal(err)
	}
	if k := firstMismatch(flux.Data(), want); k >= 0 {
		t.Fatalf("sweep octant: flux[%d] differs from the closure engine", k)
	}
}

// TestAssertFinite checks the set-up guard against the values it exists for.
func TestAssertFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0x1p-1030} {
		if assertFinite("x", []float64{1, bad}) == nil {
			t.Errorf("assertFinite accepted %v", bad)
		}
	}
	if err := assertFinite("x", []float64{0, -0.0, 1, -2.5, smallestNormal}); err != nil {
		t.Error(err)
	}
}

// TestHostReference checks that the reference yields a usable factor, scales
// what a recorder records, keeps its arrays out of the Go heap, and that its
// goroutine ends with it.
func TestHostReference(t *testing.T) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ref, err := newHostRef()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if grown := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); grown > 1<<20 {
		t.Errorf("the reference holds %d bytes of Go heap; its arrays must be mapped outside it", grown)
	}
	rec := &recorder{ref: ref, factor: 1}
	rec.begin()
	rec.end()
	if f := rec.factor; f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		t.Fatalf("host-speed factor = %v", f)
	}
	if want := int64(float64(rec.raw[0]) * rec.factor); rec.scaled[0] != want {
		t.Errorf("recorded raw %d scaled %d, want %d", rec.raw[0], rec.scaled[0], want)
	}
	ref.stop()
	var none *hostRef
	if none.read() != 1 {
		t.Error("a nil reference must leave times as measured")
	}
}

// TestQuartilesMatchPython pins the quartile rule to Python's
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{2, 4, 4, 5, 9})
	if q1 != 3 || q3 != 7 {
		t.Errorf("quartiles of [2 4 4 5 9] = %v, %v; Python gives 3, 7", q1, q3)
	}
}

// TestSelfTimeSubtractsCoveredTimeOnce checks the self-time rule on
// children that overlap each other.
func TestSelfTimeSubtractsCoveredTimeOnce(t *testing.T) {
	r := &spanRecorder{}
	r.spans = []span{
		{Name: "op", Start: 0, End: 100, ID: 0, Parent: -1},
		{Name: "a", Start: 10, End: 50, ID: 1, Parent: 0},
		{Name: "b", Start: 30, End: 70, ID: 2, Parent: 0},  // overlaps a by 20
		{Name: "c", Start: 90, End: 120, ID: 3, Parent: 0}, // clipped to the parent
	}
	for _, st := range r.selfTimes() {
		if st.Name == "op" && st.Self != 30 {
			t.Errorf("self time of op = %d, want 100 - (60 + 10) = 30", st.Self)
		}
	}
}
