// Wavebench regenerates the paper's figures and tables.
//
// Usage:
//
//	wavebench -list
//	wavebench -exp fig5a
//	wavebench -exp all [-quick]
//	wavebench -trace out.json [-procs 4] [-block 16] [-n 128] [-link-cap 4]
//	wavebench -chaos all [-procs 4] [-block 16] [-n 64] [-seed 1]
//
// Each experiment prints the series the corresponding paper artifact
// reports; EXPERIMENTS.md records the paper-vs-measured comparison.
//
// The -trace mode runs the Tomcatv forward-elimination wavefront pipelined
// across -procs ranks with tile width -block, prints the per-rank
// busy/wait/comm summary, validates the recorded schedule against the
// wavefront safety invariant, and writes a Chrome trace-event JSON file
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// The -chaos mode exercises the fault-tolerant runtime: it injects a seeded
// fault scenario (drop, corrupt, stall, crash, delay, backpressure,
// recover, recover-multi, or all) into the same workload and verifies the
// run ends with the predicted diagnosis instead of hanging. The recovery
// scenarios crash ranks at pinned waves with a snapshot every second tile
// and demand the restarted run complete bit-identical to the serial oracle.
// -link-cap bounds every comm link so senders feel backpressure (0 =
// unbounded); it applies to -trace and -chaos runs. -transport selects how
// messages travel between ranks (in-process channels, loopback TCP, or unix
// sockets) for the -chaos scenarios.
//
// A -trace run also prints the cross-rank critical-path decomposition: the
// longest causal chain through the recorded events, its compute/comm/wait
// split, and where it crosses ranks. -serve ADDR loops the workload in one
// session that serves its live metrics, the last run's critical path and
// the last post-mortem bundle over HTTP. -postmortem DIR arms
// the flight recorder for -trace, -chaos, and -serve runs: structured
// failures (and, for -trace, the completed run) capture a checksummed JSON
// bundle — trace tail, metrics, wait-for graph, checkpoint metadata, run
// config, critical path — into DIR.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"wavefront"
	"wavefront/internal/critpath"
	"wavefront/internal/exp"
	"wavefront/internal/field"
	"wavefront/internal/workload"
)

// errCheckFailed marks a run whose setup succeeded but whose checked
// property did not hold (schedule validation, chaos prediction, dropped
// trace events). Those exit 1; setup and usage errors exit 2, so CI can
// tell "the workload misbehaved" from "the tool was invoked wrong".
var errCheckFailed = errors.New("check failed")

// The flags, at package level so the README test can walk
// flag.CommandLine without running main.
var (
	id        = flag.String("exp", "all", "experiment id, or 'all'")
	quick     = flag.Bool("quick", false, "shrink problem sizes (for smoke runs)")
	list      = flag.Bool("list", false, "list experiments and exit")
	traceOut  = flag.String("trace", "", "record a traced pipeline run and write Chrome trace JSON to this file")
	procs     = flag.Int("procs", 4, "ranks for -trace, -chaos, and -serve")
	blockSize = flag.Int("block", 16, "tile width for -trace, -chaos, and -serve (0 = naive)")
	n         = flag.Int("n", 128, "problem size for -trace, -chaos, and -serve")
	chaos     = flag.String("chaos", "", "inject a fault scenario (drop|corrupt|stall|crash|delay|backpressure|recover|recover-multi|all)")
	linkCap   = flag.Int("link-cap", 0, "bound every comm link to this many queued messages (0 = unbounded)")
	seed      = flag.Int64("seed", 1, "fault-plan seed for -chaos")
	transp    = flag.String("transport", "chan", "message transport: chan (in-process), tcp, or unix (loopback sockets)")
	serve     = flag.String("serve", "", "serve live metrics at this address (e.g. :8080) while looping the workload")
	duration  = flag.Duration("duration", 0, "stop the -serve workload loop after this long (0 = until interrupted)")
	schedSel  = flag.String("sched", "static", "tile scheduler: static (pipeline schedule) or taskdag (tile DAG on a worker pool)")
	workers   = flag.Int("workers", 0, "task-DAG pool size per rank for -sched=taskdag (0 = GOMAXPROCS)")
	postmort  = flag.String("postmortem", "", "arm the flight recorder: write post-mortem bundles into this directory (with -trace, -chaos, or -serve)")
	validate  = flag.Bool("validate", false, "run every workload family serially on the tape, closure and point-walk engines and pipelined under both schedulers, and exit nonzero on any bit-level disagreement")
)

func main() {
	flag.Parse()

	if *list {
		for _, eid := range exp.IDs() {
			title, _ := exp.Title(eid)
			fmt.Printf("%-12s %s\n", eid, title)
		}
		return
	}

	exitOn := func(err error) {
		if err == nil {
			return
		}
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, errCheckFailed) {
			os.Exit(1)
		}
		os.Exit(2)
	}

	sched, err := wavefront.ParseScheduler(*schedSel)
	exitOn(err)
	tkind, err := wavefront.ParseTransport(*transp)
	exitOn(err)
	tcfg := wavefront.TransportConfig{Kind: tkind}

	if *validate {
		exitOn(runValidate(*n, *blockSize))
		return
	}

	if *serve != "" {
		exitOn(runLive(*serve, *procs, *blockSize, *n, *duration, sched, *workers, *postmort))
		return
	}

	if *chaos != "" {
		exitOn(runChaos(*chaos, *procs, *blockSize, *n, *linkCap, *seed, sched, *workers, tcfg, *postmort))
		return
	}

	if *traceOut != "" {
		exitOn(runTraced(*traceOut, *procs, *blockSize, *n, *linkCap, sched, *workers, *postmort))
		return
	}

	ids := []string{*id}
	if *id == "all" {
		ids = exp.IDs()
	}
	failed := false
	for _, eid := range ids {
		r, err := exp.Run(eid, *quick)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("=== %s: %s ===\n", r.ID, r.Title)
		if r.Err != nil {
			fmt.Printf("FAILED: %v\n\n", r.Err)
			failed = true
			continue
		}
		fmt.Println(strings.TrimRight(r.Text, "\n"))
		fmt.Println()
	}
	if failed {
		os.Exit(1)
	}
}

// runTraced pipelines the Tomcatv forward elimination across ranks with
// tracing on, prints the summary and the critical-path decomposition,
// validates the schedule, and writes the Chrome trace. Under -sched=taskdag
// the recorder carries procs*(1+workers) rings so every DAG worker's tile
// spans land in the trace and the validator replays the dynamic schedule
// too.
func runTraced(path string, procs, block, n, linkCap int, sched wavefront.Scheduler, workers int, pmDir string) error {
	t, err := workload.NewTomcatv(n, field.RowMajor)
	if err != nil {
		return err
	}
	rings, wtr := procs, 0
	if sched == wavefront.SchedTaskDAG {
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		wtr = workers
		rings = procs * (1 + workers)
	}
	rec := wavefront.NewTraceRecorder(rings)
	var pm *wavefront.FlightRecorder
	if pmDir != "" {
		pm = wavefront.NewFlightRecorder(pmDir)
	}
	reg := wavefront.NewMetrics(procs)
	stats, err := wavefront.RunPipelined(t.ForwardBlock(), t.Env,
		wavefront.Pipeline{Procs: procs, Block: block, Trace: rec, LinkCapacity: linkCap,
			Scheduler: sched, Workers: workers, Postmortem: pm, Metrics: reg})
	if err != nil {
		if pm != nil {
			if _, bp := pm.Last(); bp != "" {
				fmt.Printf("post-mortem bundle: %s\n", bp)
			}
		}
		return err
	}
	fmt.Printf("tomcatv forward: n=%d procs=%d block=%d sched=%v tiles=%d msgs=%d elems=%d elapsed=%v\n",
		n, stats.Procs, stats.Block, sched, stats.Tiles, stats.Comm.Messages, stats.Comm.Elements, stats.Elapsed)
	fmt.Printf("kernel paths: %s\n", pathLine(reg))
	if linkCap > 0 {
		fmt.Printf("link capacity %d: %d blocked sends, %v total backpressure wait\n",
			linkCap, stats.Comm.BlockedSends, stats.Comm.BlockedSendTime)
	}
	fmt.Println(stats.Summary.String())
	rep, cerr := critpath.Analyze(rec.Events(), critpath.Options{
		Procs: procs, Workers: wtr, Dropped: rec.Dropped(), Tolerant: true})
	if cerr != nil {
		return fmt.Errorf("critical-path analysis FAILED (%w): %v", errCheckFailed, cerr)
	}
	fmt.Println(rep.String())
	if pm != nil {
		_, bp, cerr := pm.CaptureNow("traced-run")
		if cerr != nil {
			return cerr
		}
		fmt.Printf("post-mortem bundle: %s\n", bp)
	}
	if d := rec.Dropped(); d > 0 {
		fmt.Printf("WARNING: trace ring overflow — %d events dropped; the summary, Chrome export, and validation below describe a truncated trace (raise the recorder capacity)\n", d)
		return fmt.Errorf("%w: recorder dropped %d events; raise the capacity", errCheckFailed, d)
	}
	if err := wavefront.ValidateTrace(rec); err != nil {
		return fmt.Errorf("schedule validation FAILED (%w): %v", errCheckFailed, err)
	}
	fmt.Println("schedule validation: OK (every compute followed its upstream boundary receives)")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote Chrome trace (%d events) to %s — load it in ui.perfetto.dev or chrome://tracing\n",
		rec.Len(), path)
	return nil
}
