package pipeline

import (
	"fmt"
	"testing"

	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/scan"
)

// TestStridedTileDimension: a scan block whose region is strided along the
// tile dimension — [1..33, 1..33 by 2] — must leave the off-stride columns
// alone under every tiling. Tiles cut by index with stride 1 stamped on
// them overwrote those columns whenever the tile dimension was really cut
// (b < full width), at every p under the static schedule.
func TestStridedTileDimension(t *testing.T) {
	const n = 33
	bounds := grid.MustRegion(grid.NewRange(0, n), grid.NewRange(0, n+1))
	region := grid.MustRegion(grid.NewRange(1, n), grid.Range{Lo: 1, Hi: n, Stride: 2})
	blk := scan.NewScan(region, scan.Stmt{
		LHS: expr.Ref("a"),
		RHS: expr.Binary{Op: expr.Add, L: expr.Ref("a").At(grid.North).Prime(), R: expr.Const(1)},
	})
	newEnv := func() *expr.MapEnv {
		f := field.MustNew("a", bounds, field.RowMajor)
		f.FillFunc(bounds, func(p grid.Point) float64 { return 0.5*float64(p[0]) + 0.01*float64(p[1]) })
		return &expr.MapEnv{Arrays: map[string]*field.Field{"a": f}}
	}
	want := newEnv()
	if err := scan.Exec(blk, want, scan.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, sched := range []scan.Scheduler{scan.SchedStatic, scan.SchedTaskDAG} {
		for _, p := range []int{1, 2, 3} {
			for _, b := range []int{1, 4, 0} {
				t.Run(fmt.Sprintf("%v/p%d/b%d", sched, p, b), func(t *testing.T) {
					got := newEnv()
					if _, err := Run(blk, got, Config{Procs: p, Block: b, Scheduler: sched, Workers: 2}); err != nil {
						t.Fatal(err)
					}
					bad := 0
					bounds.Each(nil, func(pt grid.Point) {
						if got.Arrays["a"].At(pt) != want.Arrays["a"].At(pt) {
							bad++
						}
					})
					if bad != 0 {
						t.Errorf("%d points differ from serial execution", bad)
					}
				})
			}
		}
	}
}
