package scan

import (
	"fmt"
	"math"
	"testing"

	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
)

// gotohBlock is the Smith-Waterman fill with affine gaps — the recurrence
// of workload.SW, which this package cannot import — over region, reading
// its west, north and north-west neighbours (s = 1) or their mirror images
// (s = -1, the fill run from the far corner).
func gotohBlock(region grid.Region, s int) *Block {
	max2 := func(a, b expr.Node) expr.Node { return expr.Call{Fn: expr.Max, Args: []expr.Node{a, b}} }
	at := func(name string, d grid.Direction) expr.Node { return expr.Ref(name).At(d).Prime() }
	sub := func(l expr.Node, c float64) expr.Node { return expr.Binary{Op: expr.Sub, L: l, R: expr.Const(c)} }
	west, north, nw := grid.Direction{0, -s}, grid.Direction{-s, 0}, grid.Direction{-s, -s}
	const open, ext = 3, 1
	return NewScan(region,
		Stmt{LHS: expr.Ref("e"), RHS: max2(sub(at("s", west), open), sub(at("e", west), ext))},
		Stmt{LHS: expr.Ref("f"), RHS: max2(sub(at("s", north), open), sub(at("f", north), ext))},
		Stmt{LHS: expr.Ref("s"), RHS: max2(expr.Const(0), max2(
			expr.Binary{Op: expr.Add, L: at("s", nw), R: expr.Ref("match")},
			max2(expr.Ref("e"), expr.Ref("f"))))})
}

// octantBlock is a Sweep3D-shaped rank-3 recurrence: every dimension
// carries a dependence, from the low corner (s = 1) or the high one.
func octantBlock(region grid.Region, s int) *Block {
	at := func(d ...int) expr.Node { return expr.Ref("v").At(grid.Direction(d)).Prime() }
	return NewScan(region, Stmt{LHS: expr.Ref("v"), RHS: expr.AddN(
		expr.MulN(expr.Const(0.3), expr.AddN(at(-s, 0, 0), at(0, -s, 0), at(0, 0, -s))),
		expr.Ref("src"))})
}

// firstBitDiff returns the first flat index at which the storage of two
// same-shaped fields differs bit for bit, or -1.
func firstBitDiff(got, want *field.Field) int {
	g, w := got.Data(), want.Data()
	for i := range w {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			return i
		}
	}
	return -1
}

// shortRunFamilies are the three block shapes the tape has an inner-run
// order for: spans (Tomcatv's forward elimination, its dependence along
// dim), skewed diagonals in the plane (Gotoh) and under an outer loop (the
// octant).
var shortRunFamilies = []struct {
	name   string
	rank   int
	arrays []string
	// build returns the block reading toward s along dim — the one
	// dimension the span family's dependence lies on; the other two carry
	// one on every dimension.
	build func(region grid.Region, s, dim int) *Block
	path  func(PathCounts) int64
}{
	{"tomcatv", 2, tomcatvArrays,
		func(region grid.Region, s, dim int) *Block {
			toward := make(grid.Direction, 2)
			toward[dim] = -s
			return NewScan(region, tomcatvStmts(toward)...)
		},
		func(pc PathCounts) int64 { return pc.Span }},
	{"gotoh", 2, []string{"s", "e", "f", "match"},
		func(region grid.Region, s, _ int) *Block { return gotohBlock(region, s) },
		func(pc PathCounts) int64 { return pc.Skewed }},
	{"octant", 3, []string{"v", "src"},
		func(region grid.Region, s, _ int) *Block { return octantBlock(region, s) },
		func(pc PathCounts) int64 { return pc.Skewed }},
}

// TestShortRunsMatchClosure holds the tape to the closure engine, bit for
// bit, on inner runs of 1 to 5 points — the lengths Kernel.run used to
// hand to a second closure compiler, so no production run had put them on
// the tape: every family × both sweep directions × the identity nest and
// the one with dimension 1 outermost, with nothing tallied as closure.
func TestShortRunsMatchClosure(t *testing.T) {
	const long = 6
	for _, fam := range shortRunFamilies {
		bounds := grid.Square(fam.rank, 0, long+1)
		for _, s := range []int{1, -1} {
			for _, outer := range []int{0, 1} {
				order := []int{outer, 1 - outer, 2}[:fam.rank]
				// The span family's dependence lies along the outermost
				// loop, leaving the innermost free to run as a span.
				blk := fam.build(bounds, s, outer)
				an, err := Analyze(blk, dep.Preference{DimOrder: order, PreferLow: true})
				if err != nil {
					t.Fatal(err)
				}
				if an.Loop.Perm[0] != outer {
					t.Fatalf("%s: derived %v, want dimension %d outermost", fam.name, an.Loop, outer)
				}
				inner := an.Loop.Perm[fam.rank-1]
				for run := 1; run <= 5; run++ {
					dims := make([]grid.Range, fam.rank)
					for d := range dims {
						dims[d] = grid.NewRange(1, long)
					}
					dims[inner] = grid.NewRange(1, run)
					blk.Region = grid.MustRegion(dims...)
					name := fmt.Sprintf("%s/s%+d/outer%d/run%d", fam.name, s, outer, run)
					exec := func(e Engine) (*expr.MapEnv, PathCounts) {
						env := env2(fam.arrays, bounds)
						for i, a := range fam.arrays {
							i := i
							env.Arrays[a].FillFunc(bounds, func(p grid.Point) float64 {
								v := 1.5 + 0.37*float64(i)
								for d, x := range p {
									v += 0.013 * float64((d+2)*x*(i+1)%7)
								}
								return v
							})
						}
						k, err := engineKernel(blk, env, an.UDVs, e)
						if err != nil {
							t.Fatal(err)
						}
						k.Run(blk.Region, an.Loop)
						return env, k.PathCounts()
					}
					got, pc := exec(EngineTape)
					want, _ := exec(EngineClosure)
					if ns := int64(len(blk.Stmts)); pc.Closure != 0 || fam.path(pc) != ns {
						t.Errorf("%s: tape tallied %v, want all %d statements on the family's path", name, pc, ns)
					}
					for _, a := range fam.arrays {
						if i := firstBitDiff(got.Arrays[a], want.Arrays[a]); i >= 0 {
							t.Fatalf("%s: %s[%d] tape %v != closure %v", name, a, i,
								got.Arrays[a].Data()[i], want.Arrays[a].Data()[i])
						}
					}
				}
			}
		}
	}
}

// BenchmarkKernelShortRuns publishes what a short inner run costs on the
// tape, which takes every lowered region whatever its shape: Tomcatv's
// forward block over a tile that many columns wide (span runs) and the
// Smith-Waterman fill over a band that many rows deep (skewed diagonals no
// longer than that), in ns/point. Only LU/Cholesky's last few steps run
// spans this short.
func BenchmarkKernelShortRuns(b *testing.B) {
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
		env := env2([]string{"s", "e", "f", "match"}, bounds)
		env.Arrays["match"].FillFunc(bounds, func(p grid.Point) float64 {
			if (p[0]*7+p[1]*3)%4 == 0 {
				return 2
			}
			return -1
		})
		return gotohBlock(grid.MustRegion(grid.NewRange(1, run), grid.NewRange(1, n-1)), 1), env
	}
	for _, w := range []struct {
		name  string
		build func(run int) (*Block, *expr.MapEnv)
	}{{"tomcatv", tomcatv}, {"sw", sw}} {
		for _, run := range []int{1, 2, 3, 4, 8, 16} {
			blk, env := w.build(run)
			an, err := Analyze(blk, dep.Preference{PreferLow: true})
			if err != nil {
				b.Fatal(err)
			}
			k, err := NewKernelDeps(blk, env, an.UDVs)
			if err != nil {
				b.Fatal(err)
			}
			points := float64(blk.Region.Size())
			b.Run(fmt.Sprintf("%s/run%d", w.name, run), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.Run(blk.Region, an.Loop)
				}
				if pc := k.PathCounts(); pc.Closure != 0 || pc.Scalar != 0 {
					b.Fatalf("paths %v: the run left the tape's vector orders", pc)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*points), "ns/point")
			})
		}
	}
}
