// Simple: a SIMPLE-style Lagrangian hydrodynamics step — an explicit hydro
// phase (fully parallel stencils) followed by a heat-conduction solve whose
// forward and backward sweeps are wavefronts. The example steps the
// simulation and then runs both sweeps through the pipelined runtime.
//
//	go run ./examples/simple [-n 64] [-steps 10] [-p 4] [-b 8]
package main

import (
	"flag"
	"fmt"
	"log"

	"wavefront"
	"wavefront/internal/field"
	"wavefront/internal/scan"
	"wavefront/internal/workload"
)

func main() {
	var (
		n     = flag.Int("n", 64, "problem size")
		steps = flag.Int("steps", 10, "time steps")
		p     = flag.Int("p", 4, "ranks for the pipelined sweeps")
		b     = flag.Int("b", 8, "pipeline block width (0 = naive)")
	)
	flag.Parse()

	s, err := workload.NewSimple(*n, field.ColMajor)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("step   total energy")
	for i := 1; i <= *steps; i++ {
		e, err := s.Step()
		if err != nil {
			log.Fatal(err)
		}
		if i <= 3 || i == *steps || i%5 == 0 {
			fmt.Printf("%4d   %.6f\n", i, e)
		}
	}

	// Pipeline both conduction sweeps and verify against serial execution.
	serial, _ := workload.NewSimple(*n, field.ColMajor)
	par, _ := workload.NewSimple(*n, field.ColMajor)
	prep := func(w *workload.Simple) {
		for _, blk := range w.HydroBlocks() {
			if err := scan.Exec(blk, w.Env, scan.ExecOptions{}); err != nil {
				log.Fatal(err)
			}
		}
		if err := scan.Exec(w.ConductionSetupBlock(), w.Env, scan.ExecOptions{}); err != nil {
			log.Fatal(err)
		}
	}
	prep(serial)
	prep(par)

	if err := scan.Exec(serial.ForwardSweepBlock(), serial.Env, scan.ExecOptions{}); err != nil {
		log.Fatal(err)
	}
	fstats, err := wavefront.RunPipelined(par.ForwardSweepBlock(), par.Env, wavefront.Pipeline{Procs: *p, Block: *b})
	if err != nil {
		log.Fatal(err)
	}
	if err := scan.Exec(serial.BackwardSweepBlock(), serial.Env, scan.ExecOptions{}); err != nil {
		log.Fatal(err)
	}
	bstats, err := wavefront.RunPipelined(par.BackwardSweepBlock(), par.Env, wavefront.Pipeline{Procs: *p, Block: *b})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nforward sweep (north->south):  %d messages, pipelined arrays %v\n",
		fstats.Comm.Messages, fstats.Pipelined)
	fmt.Printf("backward sweep (south->north): %d messages, pipelined arrays %v\n",
		bstats.Comm.Messages, bstats.Pipelined)
	for _, name := range workload.SimpleArrays {
		if d := par.Env.Arrays[name].MaxAbsDiff(par.All, serial.Env.Arrays[name]); d != 0 {
			log.Fatalf("%s differs by %g", name, d)
		}
	}
	fmt.Println("both pipelined sweeps match serial execution exactly.")
}
