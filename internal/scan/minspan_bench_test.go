package scan

import (
	"fmt"
	"testing"

	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
)

// gotohBlock is the Smith-Waterman fill with affine gaps — the recurrence
// of workload.SW, which this package cannot import — over region.
func gotohBlock(region grid.Region) *Block {
	max2 := func(a, b expr.Node) expr.Node { return expr.Call{Fn: expr.Max, Args: []expr.Node{a, b}} }
	at := func(name string, d grid.Direction) expr.Node { return expr.Ref(name).At(d).Prime() }
	sub := func(l expr.Node, c float64) expr.Node { return expr.Binary{Op: expr.Sub, L: l, R: expr.Const(c)} }
	const open, ext = 3, 1
	return NewScan(region,
		Stmt{LHS: expr.Ref("e"), RHS: max2(sub(at("s", grid.West), open), sub(at("e", grid.West), ext))},
		Stmt{LHS: expr.Ref("f"), RHS: max2(sub(at("s", grid.North), open), sub(at("f", grid.North), ext))},
		Stmt{LHS: expr.Ref("s"), RHS: max2(expr.Const(0), max2(
			expr.Binary{Op: expr.Add, L: at("s", grid.NW), R: expr.Ref("match")},
			max2(expr.Ref("e"), expr.Ref("f"))))})
}

// BenchmarkKernelTapeVsClosureShortRuns is the measurement behind minSpan:
// the tape against the rank-2 closure pair it falls back to, on inner runs
// of 2 to 16 points — Tomcatv's forward block over a tile that many columns
// wide (span runs), the Smith-Waterman fill over a band that many rows deep
// (skewed diagonals no longer than that). Both legs bypass Kernel.run's
// choice; ns/point reads directly across a pair.
func BenchmarkKernelTapeVsClosureShortRuns(b *testing.B) {
	const n = 256
	tomcatv := func(run int) (*Block, *expr.MapEnv) {
		blk, names := tomcatvFragment(n)
		env := env2(names, grid.MustRegion(grid.NewRange(1, n), grid.NewRange(1, n)))
		seedTomcatv(env, n)
		blk.Region = grid.MustRegion(blk.Region.Dim(0), grid.NewRange(2, 1+run))
		return blk, env
	}
	sw := func(run int) (*Block, *expr.MapEnv) {
		bounds := grid.Square(2, 0, n)
		env := &expr.MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{}}
		for _, name := range []string{"s", "e", "f", "match"} {
			env.Arrays[name] = field.MustNew(name, bounds, field.RowMajor)
		}
		env.Arrays["match"].FillFunc(bounds, func(p grid.Point) float64 {
			if (p[0]*7+p[1]*3)%4 == 0 {
				return 2
			}
			return -1
		})
		return gotohBlock(grid.MustRegion(grid.NewRange(1, run), grid.NewRange(1, n-1))), env
	}
	for _, w := range []struct {
		name  string
		build func(run int) (*Block, *expr.MapEnv)
	}{{"tomcatv", tomcatv}, {"sw", sw}} {
		for _, run := range []int{2, 4, 6, 8, 12, 16} {
			blk, env := w.build(run)
			an, err := Analyze(blk, dep.Preference{PreferLow: true})
			if err != nil {
				b.Fatal(err)
			}
			k, err := NewKernelDeps(blk, env, an.UDVs)
			if err != nil {
				b.Fatal(err)
			}
			if k.prog == nil || k.rhs2 == nil {
				b.Fatalf("%s: the block has no tape or no closure pair to compare", w.name)
			}
			points := float64(blk.Region.Size())
			for _, leg := range []struct {
				name string
				run  func()
			}{
				{"tape", func() { k.prog.Run(blk.Region, an.Loop) }},
				{"closure", func() { k.run2(blk.Region, an.Loop) }},
			} {
				b.Run(fmt.Sprintf("%s/run%d/%s", w.name, run, leg.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						leg.run()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*points), "ns/point")
				})
			}
		}
	}
}
