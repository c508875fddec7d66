package main

import (
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wavefront"
)

// runLive loops the Tomcatv forward wavefront in one session that serves
// its metrics over HTTP (-serve): the session owns the registry, the
// endpoint (/metrics, /debug/vars, /debug/pprof/, the last Run's critical
// path at /debug/critpath, the last post-mortem bundle at /debug/bundle),
// the flight ring behind the last two, and one buffer pool whose warm free
// lists carry from Run to Run, so after the first the steady-state waves
// stop allocating. The loop stops after -duration, or on SIGINT/SIGTERM
// when the duration is 0.
func runLive(addr string, procs, block, n int, dur time.Duration, sched wavefront.Scheduler, workers int, pmDir string) error {
	t, err := prepTomcatv(n)
	if err != nil {
		return err
	}
	var pm *wavefront.FlightRecorder
	if pmDir != "" {
		pm = wavefront.NewFlightRecorder(pmDir)
	}
	fwd := t.ForwardBlock()
	sess, err := wavefront.NewSession(t.Env, []*wavefront.Block{fwd}, wavefront.SessionConfig{
		Procs: procs, Domain: fwd.Region, Block: block,
		MetricsAddr: addr, Postmortem: pm,
		Pool: wavefront.NewBufferPool(procs), Scheduler: sched, Workers: workers,
	})
	if err != nil {
		return err
	}
	defer sess.Close()
	fmt.Printf("serving metrics on http://%s  (/metrics, /debug/vars, /debug/pprof/, /debug/critpath, /debug/bundle)\n", sess.MetricsAddr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(stop)
	var deadline <-chan time.Time
	if dur > 0 {
		deadline = time.After(dur)
	}

	fmt.Printf("looping tomcatv forward: n=%d procs=%d block=%d\n", n, procs, block)
	for runs := 0; ; runs++ {
		select {
		case <-stop:
			fmt.Printf("\nstopped after %d runs\n", runs)
			return nil
		case <-deadline:
			fmt.Printf("done: %d runs in %v\n", runs, dur)
			return nil
		default:
		}
		if err := sess.Run(func(r *wavefront.Rank) error { return r.Exec(fwd) }); err != nil {
			if _, bp := pm.Last(); bp != "" {
				fmt.Printf("post-mortem bundle: %s\n", bp)
			}
			return err
		}
	}
}
