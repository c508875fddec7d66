// Session: run the whole Tomcatv iteration — parallel stencils, both
// wavefront sweeps, and a convergence reduction — across a persistent
// decomposition, the way the paper's parallel benchmarks ran. Arrays
// scatter once, halos are exchanged lazily, wavefronts pipeline in both
// directions, and the block size comes from Equation (1) with probed
// machine parameters.
//
//	go run ./examples/session [-n 48] [-p 4] [-iters 5]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"

	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/pipeline"
	"wavefront/internal/scan"
	"wavefront/internal/workload"
)

func main() {
	var (
		n     = flag.Int("n", 48, "problem size")
		p     = flag.Int("p", 4, "ranks")
		iters = flag.Int("iters", 5, "iterations")
	)
	flag.Parse()

	// Pick the pipeline block width from Equation (1) using probed
	// communication costs — the paper's proposed dynamic selection.
	alpha, beta, err := pipeline.Probe(100)
	if err != nil {
		log.Fatal(err)
	}
	b, err := pipeline.ChooseBlock(*n, *p, alpha, beta, 10e-9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("probed alpha=%.3gs beta=%.3gs/elem -> block width b=%d\n\n", alpha, beta, b)

	w, err := workload.NewTomcatv(*n, field.ColMajor)
	if err != nil {
		log.Fatal(err)
	}
	blocks := w.Blocks()
	sess, err := pipeline.NewSession(w.Env, blocks, pipeline.SessionConfig{
		Procs: *p, Domain: w.All, Block: b,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	absRx := expr.Call{Fn: expr.Abs, Args: []expr.Node{expr.Ref("rx")}}
	absRy := expr.Call{Fn: expr.Abs, Args: []expr.Node{expr.Ref("ry")}}
	fmt.Println("iter   residual (all-reduced across ranks)")
	err = sess.Run(func(r *pipeline.Rank) error {
		for i := 1; i <= *iters; i++ {
			for _, blk := range blocks {
				if err := r.Exec(blk); err != nil {
					return err
				}
			}
			vx, err := r.Reduce(scan.MaxReduce, w.Interior, absRx)
			if err != nil {
				return err
			}
			vy, err := r.Reduce(scan.MaxReduce, w.Interior, absRy)
			if err != nil {
				return err
			}
			if r.ID() == 0 {
				fmt.Printf("%4d   %.6f\n", i, math.Max(vx, vy))
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	st := sess.Stats()
	fmt.Printf("\n%d ranks, %d iterations: %d messages, %d elements moved, %v elapsed\n",
		*p, *iters, st.Comm.Messages, st.Comm.Elements, st.Elapsed)

	// Verify against serial execution.
	ref, _ := workload.NewTomcatv(*n, field.ColMajor)
	for i := 0; i < *iters; i++ {
		if _, err := ref.Step(); err != nil {
			log.Fatal(err)
		}
	}
	worst := 0.0
	for _, name := range workload.TomcatvArrays {
		if d := w.Env.Arrays[name].MaxAbsDiff(w.All, ref.Env.Arrays[name]); d > worst {
			worst = d
		}
	}
	fmt.Printf("max deviation from serial execution: %g\n", worst)
}
