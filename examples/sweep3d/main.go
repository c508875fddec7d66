// Sweep3d: a discrete-ordinates transport sweep in the style of the ASCI
// SWEEP3D benchmark. Each octant's wavefront travels from one corner of the
// domain to the opposite one; the same one-statement scan block serves all
// octants, with only the primed directions changing — the point of the
// language-based approach.
//
//	go run ./examples/sweep3d [-n 32] [-rank 2] [-p 4] [-b 4]
package main

import (
	"flag"
	"fmt"
	"log"

	"wavefront"
	"wavefront/internal/dep"
	"wavefront/internal/field"
	"wavefront/internal/scan"
	"wavefront/internal/workload"
)

func main() {
	var (
		n    = flag.Int("n", 32, "domain edge length")
		rank = flag.Int("rank", 2, "2 for four octants, 3 for eight")
		p    = flag.Int("p", 4, "ranks for the pipelined octant")
		b    = flag.Int("b", 4, "pipeline block width")
	)
	flag.Parse()

	s, err := workload.NewSweep(*n, *rank, field.RowMajor)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d-D sweep over %d octants; statement per octant:\n", *rank, len(s.Octants()))
	for i, dirs := range s.Octants() {
		blk := s.OctantBlock(dirs)
		an, err := scan.Analyze(blk, dep.Preference{PreferLow: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  octant %d: %s  WSV %v  loop %s\n", i, blk.Stmts[0], an.WSV, an.Loop)
	}

	total, err := s.SweepAll()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nflux total after all octants: %.4f\n", total)

	// Run the first octant pipelined and verify.
	serial, _ := workload.NewSweep(*n, *rank, field.RowMajor)
	par, _ := workload.NewSweep(*n, *rank, field.RowMajor)
	dirs := serial.Octants()[0]
	if err := scan.Exec(serial.OctantBlock(dirs), serial.Env, scan.ExecOptions{}); err != nil {
		log.Fatal(err)
	}
	stats, err := wavefront.RunPipelined(par.OctantBlock(dirs), par.Env, wavefront.Pipeline{Procs: *p, Block: *b})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("octant 0 pipelined: wavefront dim %d, tile dim %d, %d tiles, %d messages\n",
		stats.WavefrontDim, stats.TileDim, stats.Tiles, stats.Comm.Messages)
	if d := par.Env.Arrays["flux"].MaxAbsDiff(par.Inner, serial.Env.Arrays["flux"]); d != 0 {
		log.Fatalf("pipelined octant differs by %g", d)
	}
	fmt.Println("pipelined octant matches serial execution exactly.")
}
