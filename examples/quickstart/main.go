// Quickstart: express a wavefront computation with the prime operator,
// check its legality, run it serially, then run it pipelined across ranks
// and confirm the results match.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"wavefront"
	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/scan"
)

func main() {
	const n = 8
	// Storage covers [0..n, 1..n] so that @north reads stay in bounds; the
	// computation covers [1..n, 1..n].
	bounds := grid.MustRegion(grid.NewRange(0, n), grid.NewRange(1, n))
	region := grid.MustRegion(grid.NewRange(1, n), grid.NewRange(1, n))

	mkEnv := func() *expr.MapEnv {
		env := &expr.MapEnv{Arrays: map[string]*field.Field{
			"a": field.MustNew("a", bounds, field.RowMajor),
		}}
		env.Arrays["a"].Fill(1)
		return env
	}

	// The paper's Figure 3(d): a := 2 * a'@north. The primed reference
	// demands a loop-carried true dependence — a wavefront from north to
	// south.
	block := scan.NewScan(region, scan.Stmt{
		LHS: expr.Ref("a"),
		RHS: expr.Binary{Op: expr.Mul, L: expr.Const(2),
			R: expr.Ref("a").AtNamed("north", grid.North).Prime()},
	})

	an, err := scan.Analyze(block, dep.Preference{PreferLow: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("statement:   ", block.Stmts[0])
	fmt.Println("WSV:         ", an.WSV, "(simple:", an.WSV.Simple(), ")")
	fmt.Println("wavefront dims:", an.WavefrontDims())
	fmt.Println("loop:        ", an.Loop)

	serial := mkEnv()
	if err := scan.Exec(block, serial, scan.ExecOptions{}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nserial result (rows double as the wavefront passes):")
	fmt.Print(serial.Arrays["a"].Format2(region))

	par := mkEnv()
	stats, err := wavefront.RunPipelined(block, par, wavefront.Pipeline{Procs: 4, Block: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npipelined over %d ranks, block width %d: %d tiles, %d messages (%d elements)\n",
		stats.Procs, stats.Block, stats.Tiles, stats.Comm.Messages, stats.Comm.Elements)
	if d := par.Arrays["a"].MaxAbsDiff(region, serial.Arrays["a"]); d != 0 {
		log.Fatalf("parallel result differs by %g", d)
	}
	fmt.Println("pipelined result is identical to the serial result.")
}
