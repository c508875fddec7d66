package kernel

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
)

// fillEnv gives every array of env values in [1, 2) drawn from seed, so the
// forward block's divisions stay finite.
func fillEnv(env *expr.MapEnv, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, 0, len(env.Arrays))
	for name := range env.Arrays {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		for i, d := 0, env.Arrays[name].Data(); i < len(d); i++ {
			d[i] = 1 + rng.Float64()
		}
	}
}

// TestRebindMatchesFreshLower: a program lowered once and re-bound to other
// fields of the same shape computes, bit for bit, what a program lowered
// against those fields computes — on the unit-step tape the forward block
// takes — and the re-bind allocates nothing. A nil env drops every field
// and data reference.
func TestRebindMatchesFreshLower(t *testing.T) {
	const n = 16
	region := grid.MustRegion(grid.NewRange(2, n), grid.NewRange(1, n))
	loop := dep.Identity(2)
	first := tomcatvEnv(n)
	fillEnv(first, 1)
	dsts, rhs, udvs := tomcatvForward(first)
	pr, err := Lower(2, stmts(dsts, rhs), first, udvs)
	if err != nil {
		t.Fatal(err)
	}
	pr.Run(region, loop)
	for seed := int64(2); seed <= 3; seed++ {
		kept, fresh := tomcatvEnv(n), tomcatvEnv(n)
		fillEnv(kept, seed)
		fillEnv(fresh, seed)
		if !pr.Rebind(kept) {
			t.Fatalf("seed %d: Rebind refused fields of the shape the program was lowered for", seed)
		}
		want, err := Lower(2, stmts(dsts, rhs), fresh, udvs)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := pr.Run(region, loop), want.Run(region, loop); got != want || !pr.unitRun {
			t.Fatalf("seed %d: re-bound program took %v (unit %v), fresh one %v", seed, got, pr.unitRun, want)
		}
		for name, f := range kept.Arrays {
			g, w := f.Data(), fresh.Arrays[name].Data()
			for i := range g {
				if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
					t.Fatalf("seed %d: %s[%d] = %v re-bound, %v lowered fresh", seed, name, i, g[i], w[i])
				}
			}
		}
	}
	if got := testing.AllocsPerRun(20, func() { pr.Rebind(first) }); got != 0 {
		t.Errorf("Rebind allocates %v times, want 0", got)
	}
	pr.ReleaseScratch()
	if !pr.Rebind(nil) {
		t.Fatal("Rebind(nil) refused")
	}
	for i := range pr.fields {
		if pr.fields[i].f != nil || pr.fields[i].data != nil {
			t.Fatalf("field %d still referenced after Rebind(nil)", i)
		}
	}
}

// TestRebindRefusesWhatTheTapeWasNotLoweredFor: a field of another rank or
// other strides, a name no longer bound, and aliasing that differs from the
// lowering's either way make Rebind report false and change nothing.
func TestRebindRefusesWhatTheTapeWasNotLoweredFor(t *testing.T) {
	const n = 16
	with := func(edit func(env *expr.MapEnv)) *expr.MapEnv {
		env := tomcatvEnv(n)
		edit(env)
		return env
	}
	aliased := func(env *expr.MapEnv) { env.Arrays["rx"] = env.Arrays["ry"] }
	for _, c := range []struct {
		name          string
		lowered, next *expr.MapEnv
	}{
		{"strides", tomcatvEnv(n), tomcatvEnv(n + 1)},
		{"rank", tomcatvEnv(n), with(func(env *expr.MapEnv) {
			env.Arrays["aa"] = field.MustNew("aa", grid.Square(3, 1, 4), field.RowMajor)
		})},
		{"unbound", tomcatvEnv(n), with(func(env *expr.MapEnv) { delete(env.Arrays, "aa") })},
		{"aliased now", tomcatvEnv(n), with(aliased)},
		{"aliased then", with(aliased), tomcatvEnv(n)},
	} {
		dsts, rhs, udvs := tomcatvForward(c.lowered)
		pr, err := Lower(2, stmts(dsts, rhs), c.lowered, udvs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		bound := func() []*field.Field {
			fs := make([]*field.Field, len(pr.fields))
			for k, e := range pr.fields {
				fs[k] = e.f
			}
			return fs
		}
		before := bound()
		if pr.Rebind(c.next) {
			t.Errorf("%s: Rebind accepted fields the tape was not lowered for", c.name)
		}
		if !slices.Equal(bound(), before) {
			t.Errorf("%s: a refused Rebind changed the field table", c.name)
		}
	}
}
