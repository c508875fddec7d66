package main

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"

	"wavefront"
	"wavefront/internal/chaosspec"
	"wavefront/internal/field"
	"wavefront/internal/metrics"
	"wavefront/internal/workload"
)

// chaosModes are the -chaos scenarios, in run order for "all".
var chaosModes = chaosspec.Modes

// chaosCkptEvery is the recovery scenarios' snapshot interval in tiles:
// wide enough that a restart replays a tile it had already computed.
const chaosCkptEvery = 2

// runChaos demonstrates the fault-tolerant runtime on the Tomcatv forward
// wavefront: it injects one seeded fault scenario (or all of them),
// verifies the run ends the way the scenario predicts — a structured
// deadlock diagnosis for starvation, an oracle-visible perturbation for
// corruption, a clean bit-identical run for delay and backpressure, a
// checkpoint-restart recovery to a bit-identical result for the recover
// scenarios — and prints the injector accounting and diagnostics.
func runChaos(mode string, procs, block, n, linkCap int, seed int64, sched wavefront.Scheduler, workers int, tcfg wavefront.TransportConfig, pmDir string) error {
	modes := []string{mode}
	if mode == "all" {
		modes = chaosModes
	}

	// Serial oracle: the fault-free reference result.
	oracle, err := prepTomcatv(n)
	if err != nil {
		return err
	}
	if err := wavefront.Exec(oracle.ForwardBlock(), oracle.Env); err != nil {
		return err
	}

	failed := false
	for _, m := range modes {
		if m == "backpressure" && tcfg.Kind != wavefront.TransportChan {
			// Bounded links live in the channel transport's queues; socket
			// transports get their backpressure from the kernel and reject
			// LinkCapacity outright.
			fmt.Printf("chaos %s: skipped under the %v transport (no bounded links)\n\n", m, tcfg.Kind)
			continue
		}
		if err := runChaosMode(m, procs, block, n, linkCap, seed, sched, workers, tcfg, oracle, pmDir); err != nil {
			fmt.Printf("chaos %s: FAILED: %v\n\n", m, err)
			failed = true
		}
	}
	if failed {
		return fmt.Errorf("chaos: one or more scenarios did not behave as predicted: %w", errCheckFailed)
	}
	return nil
}

func runChaosMode(mode string, procs, block, n, linkCap int, seed int64, sched wavefront.Scheduler, workers int, tcfg wavefront.TransportConfig, oracle *workload.Tomcatv, pmDir string) error {
	// The rule tables live in internal/chaosspec so this demonstration and
	// the repo's failure-drill tests inject identical schedules.
	rules, err := chaosspec.Rules(mode)
	if err != nil {
		return err
	}
	if mode == "backpressure" && linkCap == 0 {
		// No faults: a bounded link must stay bit-identical to the oracle.
		linkCap = 1
	}
	recovery := chaosspec.Recovery(mode)

	var inj *wavefront.FaultInjector
	if len(rules) > 0 {
		var err error
		inj, err = wavefront.NewFaultInjector(wavefront.FaultPlan{Seed: seed, Rules: rules})
		if err != nil {
			return err
		}
	}
	t, err := prepTomcatv(n)
	if err != nil {
		return err
	}
	cfg := wavefront.Pipeline{Procs: procs, Block: block, Faults: inj, LinkCapacity: linkCap,
		Scheduler: sched, Workers: workers, Transport: tcfg}
	var pm *wavefront.FlightRecorder
	if pmDir != "" {
		// One subdirectory per scenario so a -chaos all sweep keeps its
		// bundles apart.
		pm = wavefront.NewFlightRecorder(filepath.Join(pmDir, mode))
		cfg.Postmortem = pm
	}
	var reg *wavefront.Metrics
	if recovery {
		reg = wavefront.NewMetrics(procs)
		cfg.Metrics = reg
		cfg.Checkpoint = &wavefront.Checkpoint{Every: chaosCkptEvery}
	}
	_, err = wavefront.RunPipelined(t.ForwardBlock(), t.Env, cfg)

	diff := maxDiff(t, oracle)
	switch mode {
	case "drop", "stall":
		var dl *wavefront.DeadlockError
		if !errors.As(err, &dl) {
			return fmt.Errorf("expected a deadlock diagnosis, got: %v", err)
		}
		fmt.Printf("chaos %s: diagnosed, not hung:\n  %v\n", mode, dl)
	case "crash":
		if !errors.Is(err, wavefront.ErrFaultInjected) {
			return fmt.Errorf("expected the injected crash to propagate, got: %v", err)
		}
		fmt.Printf("chaos %s: crash propagated with peers canceled:\n  %v\n", mode, err)
	case "corrupt":
		if err != nil {
			return fmt.Errorf("corrupted run must still complete, got: %v", err)
		}
		if diff == 0 {
			return errors.New("corruption was not visible to the serial-vs-pipelined oracle")
		}
		fmt.Printf("chaos %s: oracle caught it — max |pipelined - serial| = %g\n", mode, diff)
	case "delay", "backpressure":
		if err != nil {
			return fmt.Errorf("run must complete cleanly, got: %v", err)
		}
		if diff != 0 {
			return fmt.Errorf("result diverged from the serial oracle by %g", diff)
		}
		fmt.Printf("chaos %s: bit-identical to the serial oracle\n", mode)
	case "recover", "recover-multi":
		if err != nil {
			return fmt.Errorf("crashed rank(s) must recover from snapshots, got: %v", err)
		}
		if inj.Fired() == 0 {
			return errors.New("the crash rule never fired; the run proves nothing")
		}
		if diff != 0 {
			return fmt.Errorf("recovered run diverged from the serial oracle by %g", diff)
		}
		snaps := reg.Counter(metrics.CkptSnapshots).Value()
		restores := reg.Counter(metrics.CkptRestores).Value()
		replayed := reg.Counter(metrics.CkptReplayed).Value()
		if restores == 0 {
			return errors.New("the run completed without a restart; the crash was not exercised")
		}
		fmt.Printf("chaos %s: recovered bit-identical to the serial oracle (%d snapshots, %d restores, %d msgs replayed)\n",
			mode, snaps, restores, replayed)
	}
	if pm != nil {
		if err := verifyBundle(pm, mode, recovery); err != nil {
			return err
		}
	}
	if inj != nil {
		fmt.Printf("  %s\n", inj)
	}
	fmt.Println()
	return nil
}

// verifyBundle closes the post-mortem loop on a chaos scenario: every
// scenario must leave a bundle (the clean backpressure run captures on
// demand from the stashed run state), the artifact must round-trip through
// the decoder with its checksum verified, and recovery scenarios must carry
// the checkpoint metadata a post-mortem of a restarted run needs.
func verifyBundle(pm *wavefront.FlightRecorder, mode string, recovery bool) error {
	_, path := pm.Last()
	if path == "" {
		// The scenario ended cleanly with nothing fired (backpressure): the
		// run state is stashed, capture it explicitly.
		var err error
		if _, path, err = pm.CaptureNow("chaos-" + mode); err != nil {
			return fmt.Errorf("post-mortem capture failed: %w", err)
		}
	}
	b, err := wavefront.ReadPostmortemBundle(path)
	if err != nil {
		return fmt.Errorf("post-mortem bundle %s did not round-trip: %w", path, err)
	}
	if recovery && len(b.Ckpt) == 0 {
		return fmt.Errorf("post-mortem bundle %s lacks checkpoint metadata for a recovery scenario", path)
	}
	fmt.Printf("  post-mortem bundle: %s (class=%s, %d trace rings, checksum ok)\n",
		path, b.Class, len(b.TraceTail))
	return nil
}

// prepTomcatv builds a Tomcatv instance and runs the residual and
// coefficient sweeps serially so the arrays the forward elimination reads
// (aa, dd, r, rx, ry) hold real values. On a freshly Reset instance those
// coefficients are all zero and the recurrence r = aa·d'@north multiplies
// any injected corruption by zero — the oracle could never see it.
func prepTomcatv(n int) (*workload.Tomcatv, error) {
	t, err := workload.NewTomcatv(n, field.RowMajor)
	if err != nil {
		return nil, err
	}
	if err := wavefront.Exec(t.ResidualBlock(), t.Env); err != nil {
		return nil, err
	}
	if err := wavefront.Exec(t.CoefficientBlock(), t.Env); err != nil {
		return nil, err
	}
	return t, nil
}

// maxDiff is the serial-vs-pipelined oracle: the largest absolute
// difference over every program array.
func maxDiff(a, b *workload.Tomcatv) float64 {
	worst := 0.0
	for _, name := range workload.TomcatvArrays {
		da, db := a.Env.Arrays[name].Data(), b.Env.Arrays[name].Data()
		for i := range da {
			if d := math.Abs(da[i] - db[i]); d > worst {
				worst = d
			}
		}
	}
	return worst
}
