// Tomcatv: the SPECfp92 mesh-generation benchmark whose forward/backward
// solver sweeps are the paper's flagship wavefronts (Figures 1 and 2). The
// example runs full iterations, then executes one forward sweep through the
// pipelined parallel runtime and reports its communication profile.
//
//	go run ./examples/tomcatv [-n 64] [-iters 10] [-p 4] [-b 8]
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
		n     = flag.Int("n", 64, "problem size")
		iters = flag.Int("iters", 10, "iterations")
		p     = flag.Int("p", 4, "ranks for the pipelined sweep")
		b     = flag.Int("b", 8, "pipeline block width (0 = naive)")
	)
	flag.Parse()

	t, err := workload.NewTomcatv(*n, field.ColMajor)
	if err != nil {
		log.Fatal(err)
	}

	fwd := t.ForwardBlock()
	an, err := scan.Analyze(fwd, dep.Preference{PreferLow: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("forward sweep scan block:")
	for _, s := range fwd.Stmts {
		fmt.Println("   ", s)
	}
	fmt.Printf("WSV %v -> dim 0 pipelines, dim 1 is fully parallel; loop %s\n\n", an.WSV, an.Loop)

	fmt.Println("iter   residual")
	for i := 1; i <= *iters; i++ {
		r, err := t.Step()
		if err != nil {
			log.Fatal(err)
		}
		if i <= 3 || i == *iters || i%5 == 0 {
			fmt.Printf("%4d   %.6f\n", i, r)
		}
	}

	// Re-run the forward sweep pipelined and compare against serial.
	serial, _ := workload.NewTomcatv(*n, field.ColMajor)
	par, _ := workload.NewTomcatv(*n, field.ColMajor)
	if err := scan.Exec(serial.ForwardBlock(), serial.Env, scan.ExecOptions{}); err != nil {
		log.Fatal(err)
	}
	stats, err := wavefront.RunPipelined(par.ForwardBlock(), par.Env, wavefront.Pipeline{Procs: *p, Block: *b})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npipelined forward sweep: p=%d b=%d -> %d tiles, %d messages, %d elements moved\n",
		stats.Procs, stats.Block, stats.Tiles, stats.Comm.Messages, stats.Comm.Elements)
	fmt.Printf("pipelined arrays (halo depths): %v\n", stats.Pipelined)
	for _, name := range workload.TomcatvArrays {
		if d := par.Env.Arrays[name].MaxAbsDiff(par.All, serial.Env.Arrays[name]); d != 0 {
			log.Fatalf("%s differs by %g", name, d)
		}
	}
	fmt.Println("parallel sweep matches the serial sweep exactly.")
}
