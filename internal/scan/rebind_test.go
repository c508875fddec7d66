package scan

import (
	"testing"

	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
)

// TestPreparedRebindsScalars: kernels capture scalars when compiled; a
// Prepared that outlives a change to one runs with the new value, and one
// whose scalars stand still compiles nothing again — on the static schedule
// (one kernel) and on the task DAG (one per worker), in place and through a
// temporary.
func TestPreparedRebindsScalars(t *testing.T) {
	bounds, region := grid.Square(2, 0, 9), grid.Square(2, 1, 8)
	inPlace := expr.Binary{Op: expr.Add, L: expr.MulN(expr.Scalar("s"), expr.Ref("b")), R: expr.Scalar("c")}
	// a@north + a@south over-constrains the in-place nest.
	viaTemp := expr.Binary{Op: expr.Add, L: expr.MulN(expr.Scalar("s"), expr.Ref("a").At(grid.North)),
		R: expr.Binary{Op: expr.Add, L: expr.Ref("a").At(grid.South), R: expr.Scalar("c")}}
	for _, c := range []struct {
		name   string
		rhs    expr.Node
		opt    ExecOptions
		builds int // kernel compilations per binding
	}{
		{"static", inPlace, ExecOptions{}, 1},
		{"taskdag-w2", inPlace, ExecOptions{Scheduler: SchedTaskDAG, Workers: 2}, 2},
		{"temporary", viaTemp, ExecOptions{}, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			newEnv := func() *expr.MapEnv {
				env := &expr.MapEnv{Arrays: map[string]*field.Field{
					"a": field.MustNew("a", bounds, field.RowMajor),
					"b": field.MustNew("b", bounds, field.RowMajor),
				}, Scalars: map[string]float64{"s": 2, "c": 0.5}}
				for _, f := range env.Arrays {
					f.FillFunc(bounds, func(p grid.Point) float64 { return float64(3*p[0] + p[1]) })
				}
				return env
			}
			got, want := newEnv(), newEnv()
			blk := NewPlain(region, Stmt{LHS: expr.Ref("a"), RHS: c.rhs})
			p, err := Prepare(blk, got, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			if p.parts[0].temp != (c.builds == 0) {
				t.Fatalf("temporary path = %v", p.parts[0].temp)
			}
			step := func(what string, wantBuilds int) {
				t.Helper()
				if err := p.Run(region); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if err := Exec(blk, want, ExecOptions{Engine: EngineClosure}); err != nil {
					t.Fatal(err)
				}
				g, w := got.Arrays["a"].Data(), want.Arrays["a"].Data()
				for i := range w {
					if g[i] != w[i] {
						t.Fatalf("%s: a[%d] = %v, a fresh Exec gives %v", what, i, g[i], w[i])
					}
				}
				if p.builds != wantBuilds {
					t.Errorf("%s: %d kernel compilations so far, want %d", what, p.builds, wantBuilds)
				}
			}
			step("first run", c.builds)
			step("same scalars", c.builds)
			for _, env := range []*expr.MapEnv{got, want} {
				env.Scalars["s"] = -3
			}
			step("s changed", 2*c.builds)
			step("s unchanged again", 2*c.builds)
			for _, env := range []*expr.MapEnv{got, want} {
				env.Scalars["c"] = 7
			}
			step("c changed", 3*c.builds)

			delete(got.Scalars, "c")
			if err := p.Run(region); err == nil {
				t.Error("an unbound scalar must be refused")
			}
			got.Scalars["c"] = 7
			step("c bound again", 4*c.builds)
		})
	}
}
