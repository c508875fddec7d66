package scan

import (
	"math/rand"
	"testing"

	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
)

// FuzzScanInPlaceEqualsTemp is the native-fuzzing form of the serial
// semantics oracle: for a random unprimed statement derived from the seed,
// in-place execution under the derived loop order must match temp-buffer
// execution (pure array semantics) bit for bit, and the tape engine's
// in-place result must match the closure engine's bit for bit. The
// statement reads one to six references drawn from six arrays of random
// layout, so the lowering's field table and its dimension-major geometry
// are exercised at every size from one to six fields. Run a smoke pass
// with:
//
//	go test ./internal/scan -run - -fuzz FuzzScanInPlaceEqualsTemp -fuzztime 10s
func FuzzScanInPlaceEqualsTemp(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(97))
	f.Add(int64(12345))
	f.Add(int64(-8))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		names := []string{"a", "b", "c", "d", "e", "f"}
		const n, halo = 12, 2
		bounds := grid.Square(2, 1-halo, n+halo)
		region := grid.Square(2, 1, n)
		layouts := make([]field.Layout, len(names))
		for i := range layouts {
			if rng.Intn(3) == 0 {
				layouts[i] = field.ColMajor
			}
		}

		mkEnv := func() *expr.MapEnv {
			env := &expr.MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{}}
			r := rand.New(rand.NewSource(seed ^ 0x5eed))
			for i, name := range names {
				f := field.MustNew(name, bounds, layouts[i])
				f.FillFunc(bounds, func(grid.Point) float64 { return r.Float64() })
				env.Arrays[name] = f
			}
			return env
		}

		lhs := names[rng.Intn(len(names))]
		nRefs := 1 + rng.Intn(len(names))
		terms := []expr.Node{expr.Const(0.05)}
		for i := 0; i < nRefs; i++ {
			ref := expr.Ref(names[rng.Intn(len(names))])
			if rng.Intn(5) > 0 {
				ref = ref.At(grid.Direction{
					rng.Intn(2*halo+1) - halo,
					rng.Intn(2*halo+1) - halo,
				})
			}
			terms = append(terms, expr.MulN(expr.Const(0.4), ref))
		}
		blk := NewPlain(region, Stmt{LHS: expr.Ref(lhs), RHS: expr.AddN(terms...)})

		run := func(leg string, opt ExecOptions) *expr.MapEnv {
			env := mkEnv()
			if err := Exec(blk, env, opt); err != nil {
				t.Fatalf("%s: %v\n%s", leg, err, blk)
			}
			return env
		}
		tape := run("in-place on the tape", ExecOptions{})
		for _, leg := range []struct {
			name string
			env  *expr.MapEnv
		}{
			{"in place on closures", run("in place on closures", ExecOptions{Engine: EngineClosure})},
			{"through a temporary", run("through a temporary", ExecOptions{ForceTemp: true})},
		} {
			for _, name := range names {
				if i := firstBitDiff(tape.Arrays[name], leg.env.Arrays[name]); i >= 0 {
					t.Fatalf("%q[%d] = %v in place on the tape, %v %s\n%s",
						name, i, tape.Arrays[name].Data()[i], leg.env.Arrays[name].Data()[i], leg.name, blk)
				}
			}
		}
	})
}
