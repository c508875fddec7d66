package pipeline

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"wavefront/internal/comm"
	"wavefront/internal/fault"
	"wavefront/internal/grid"
	"wavefront/internal/scan"
	"wavefront/internal/trace"
)

// TestChaosSoakCorpus drives the differential corpus through the fault
// injector: every corpus block that actually pipelines messages is run under
// each fault scenario, and each scenario must end exactly the way the
// fault-tolerance contract predicts — starvation (drops, stalls) produces a
// structured deadlock diagnosis instead of a hang, crashes propagate with
// peers canceled, corruption is caught by the serial-vs-pipelined oracle,
// and benign perturbations (delays, bounded links) leave the result
// bit-identical to serial execution.
func TestChaosSoakCorpus(t *testing.T) {
	seeds := []int64{3, 7, 10, 13, 33, 41}
	const procs, block = 3, 3
	bounds := genBounds()

	soaked, corruptSeen := 0, 0
	for _, seed := range seeds {
		seed := seed
		blk := genScanBlock(rand.New(rand.NewSource(seed)))

		// Serial oracle and a fault-free pipelined probe. Blocks that the
		// decomposition refuses, or that pipeline no messages (fully parallel
		// draws), have no boundary traffic to disrupt and are skipped.
		serialEnv := genEnv(seed)
		if err := scan.Exec(blk, serialEnv, scan.ExecOptions{}); err != nil {
			t.Fatalf("seed %d: serial exec failed: %v", seed, err)
		}
		probeEnv := genEnv(seed)
		stats, err := Run(blk, probeEnv, DefaultConfig(procs, block))
		if err != nil {
			if errors.Is(err, ErrUnsupported) {
				continue
			}
			t.Fatalf("seed %d: fault-free run failed: %v", seed, err)
		}
		if stats.Comm.Messages == 0 {
			continue
		}
		soaked++
		// The faults target the pipeline's first link. Rank i holds slab i,
		// so on a high-to-low wavefront that link is procs-1 → procs-2.
		src, dst := 0, 1
		if stats.Loop.Dirs[stats.WavefrontDim] == grid.HighToLow {
			src, dst = procs-1, procs-2
		}

		run := func(rules []fault.Rule, linkCap int, rec *trace.Recorder) (*Stats, error) {
			cfg := DefaultConfig(procs, block)
			cfg.LinkCapacity = linkCap
			cfg.Trace = rec
			if rules != nil {
				cfg.Faults = fault.MustNew(fault.Plan{Seed: seed, Rules: rules})
			}
			env := genEnv(seed)
			st, err := Run(blk, env, cfg)
			if err != nil {
				return st, err
			}
			for _, name := range genNames {
				if diff := env.Arrays[name].MaxAbsDiff(bounds, serialEnv.Arrays[name]); diff != 0 {
					return st, fmt.Errorf("oracle: array %q differs from serial by %g", name, diff)
				}
			}
			return st, nil
		}

		t.Run(fmt.Sprintf("seed%d/drop", seed), func(t *testing.T) {
			_, err := run([]fault.Rule{{Op: fault.OpSend, Rank: src, Peer: dst,
				Tag: fault.Any, Times: -1, Action: fault.ActDrop}}, 0, nil)
			var dl *comm.DeadlockError
			if !errors.As(err, &dl) {
				t.Fatalf("dropping every %d→%d message must be diagnosed as a deadlock, got: %v", src, dst, err)
			}
			if len(dl.Waits) == 0 {
				t.Fatal("deadlock diagnosis carries no wait-for entries")
			}
			if !strings.Contains(dl.Error(), fmt.Sprintf("rank %d blocked in recv from rank %d", dst, src)) {
				t.Errorf("diagnosis does not name the starved link:\n%v", dl)
			}
		})

		t.Run(fmt.Sprintf("seed%d/stall", seed), func(t *testing.T) {
			_, err := run([]fault.Rule{{Op: fault.OpRecv, Rank: dst, Peer: src,
				Tag: fault.Any, Action: fault.ActStall}}, 0, nil)
			var dl *comm.DeadlockError
			if !errors.As(err, &dl) {
				t.Fatalf("a stalled receiver must be diagnosed as a deadlock, got: %v", err)
			}
			if !strings.Contains(dl.Error(), "stalled by injected fault") {
				t.Errorf("diagnosis does not attribute the stall to the injector:\n%v", dl)
			}
		})

		t.Run(fmt.Sprintf("seed%d/crash", seed), func(t *testing.T) {
			_, err := run([]fault.Rule{{Op: fault.OpSend, Rank: src, Peer: dst,
				Tag: fault.Any, Action: fault.ActCrash}}, 0, nil)
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("an injected crash must propagate out of Run, got: %v", err)
			}
			if err == nil || !strings.Contains(err.Error(), "peers canceled") {
				t.Errorf("crash error does not report peer cancellation: %v", err)
			}
		})

		t.Run(fmt.Sprintf("seed%d/corrupt", seed), func(t *testing.T) {
			cfg := DefaultConfig(procs, block)
			// Times -1 corrupts every boundary message on the link: depending
			// on the block's tile lag, a single tile's halo rows may never be
			// read downstream, but a corrupted link as a whole must show.
			cfg.Faults = fault.MustNew(fault.Plan{Seed: seed, Rules: []fault.Rule{
				{Op: fault.OpSend, Rank: src, Peer: dst, Tag: fault.Any, Times: -1, Action: fault.ActCorrupt}}})
			env := genEnv(seed)
			if _, err := Run(blk, env, cfg); err != nil {
				t.Fatalf("a corrupted run must still complete, got: %v", err)
			}
			worst := 0.0
			for _, name := range genNames {
				if diff := env.Arrays[name].MaxAbsDiff(bounds, serialEnv.Arrays[name]); diff > worst {
					worst = diff
				}
			}
			if worst > 0 {
				corruptSeen++
			} else {
				// A block can be genuinely insensitive to its boundary input:
				// seed 7's final statement overwrites every pipelined value
				// with data derived only from pre-block arrays, so the
				// corrupted halo is read but the result is dead. The
				// aggregate check below requires the sensitive majority of
				// the corpus to expose corruption.
				t.Logf("seed %d: corrupted %d→%d link invisible (corruption-insensitive block)", seed, src, dst)
			}
		})

		t.Run(fmt.Sprintf("seed%d/delay", seed), func(t *testing.T) {
			if _, err := run([]fault.Rule{{Op: fault.OpSend, Rank: src, Peer: dst,
				Tag: fault.Any, Times: 2, Action: fault.ActDelay,
				Delay: 200 * time.Microsecond}}, 0, nil); err != nil {
				t.Fatalf("delays must not change the result: %v", err)
			}
		})

		t.Run(fmt.Sprintf("seed%d/bounded", seed), func(t *testing.T) {
			for _, cap := range []int{1, 2} {
				rec := trace.New(procs, trace.DefaultCapacity)
				st, err := run(nil, cap, rec)
				if err != nil {
					t.Fatalf("link capacity %d: fault-free bounded run must be bit-identical: %v", cap, err)
				}
				if err := trace.ValidateRecorder(rec); err != nil {
					t.Errorf("link capacity %d: schedule validation failed: %v", cap, err)
				}
				if st.Comm.BlockedSends < 0 {
					t.Errorf("link capacity %d: negative blocked-send count", cap)
				}
			}
		})
	}
	if soaked < 3 {
		t.Fatalf("chaos soak exercised only %d corpus blocks; expected >= 3 with boundary traffic", soaked)
	}
	if corruptSeen < 3 {
		t.Errorf("the oracle caught corruption on only %d/%d corpus blocks; expected >= 3", corruptSeen, soaked)
	}
	t.Logf("chaos soak: %d corpus blocks exercised; oracle caught corruption on %d", soaked, corruptSeen)
}

// sessionFixture builds a 3-rank session around the seed-7 corpus block (a
// known wavefront with cross-rank dependences).
func sessionFixture(t *testing.T, cfg SessionConfig) (*Session, *scan.Block) {
	t.Helper()
	blk := genScanBlock(rand.New(rand.NewSource(7)))
	if cfg.Domain.Rank() == 0 {
		cfg.Domain = genRegion()
	}
	env := genEnv(7)
	sess, err := NewSession(env, []*scan.Block{blk}, cfg)
	if err != nil {
		t.Fatalf("session fixture: %v", err)
	}
	return sess, blk
}

// TestSessionRankBodyError pins the no-hang contract at the Session level:
// one rank's body fails mid-wavefront while its downstream peers are blocked
// receiving from it; Run must cancel the peers and surface the cause instead
// of hanging.
func TestSessionRankBodyError(t *testing.T) {
	sess, blk := sessionFixture(t, SessionConfig{Procs: 3, Block: 3})
	errBoom := errors.New("rank body failed mid-wavefront")
	err := sess.Run(func(r *Rank) error {
		if r.ID() == 0 {
			return errBoom
		}
		return r.Exec(blk)
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("Run must surface the failing rank's error, got: %v", err)
	}
	if !strings.Contains(err.Error(), "rank 0") {
		t.Errorf("error does not name the failing rank: %v", err)
	}
}

// TestSessionCancelUnblocksAndIsIdempotent cancels a Run whose ranks are
// blocked in a collective, twice with different causes: the first cause wins,
// the second is a no-op, and the session can Run again afterwards.
func TestSessionCancelUnblocksAndIsIdempotent(t *testing.T) {
	sess, blk := sessionFixture(t, SessionConfig{Procs: 3, Block: 3})
	first := errors.New("operator abort")
	err := sess.Run(func(r *Rank) error {
		if r.ID() == 0 {
			// Let the peers commit to their barrier waits, then cancel twice.
			time.Sleep(5 * time.Millisecond)
			sess.Cancel(first)
			sess.Cancel(errors.New("second cancel must lose"))
			return nil
		}
		return r.Barrier()
	})
	if !errors.Is(err, first) {
		t.Fatalf("Run must report the first cancellation cause, got: %v", err)
	}
	if !errors.Is(err, comm.ErrCanceled) {
		t.Fatalf("cancellation must match comm.ErrCanceled, got: %v", err)
	}
	if strings.Contains(err.Error(), "second cancel must lose") {
		t.Fatalf("second Cancel overwrote the first cause: %v", err)
	}
	// A canceled session builds a fresh topology on the next Run.
	if err := sess.Run(func(r *Rank) error { return r.Exec(blk) }); err != nil {
		t.Fatalf("session must be runnable again after a canceled Run: %v", err)
	}
}

// TestSessionCancelIdleNoOp pins that Cancel with no Run in flight does
// nothing and does not poison the next Run.
func TestSessionCancelIdleNoOp(t *testing.T) {
	sess, blk := sessionFixture(t, SessionConfig{Procs: 2, Block: 3})
	sess.Cancel(errors.New("nobody is running"))
	if err := sess.Run(func(r *Rank) error { return r.Exec(blk) }); err != nil {
		t.Fatalf("idle Cancel must not affect a later Run: %v", err)
	}
}

// TestSessionInvalidConfig covers SessionConfig validation on the new
// robustness knobs.
func TestSessionInvalidConfig(t *testing.T) {
	blk := genScanBlock(rand.New(rand.NewSource(7)))
	env := genEnv(7)
	_, err := NewSession(env, []*scan.Block{blk},
		SessionConfig{Procs: 2, Domain: genRegion(), LinkCapacity: -1})
	if err == nil || !strings.Contains(err.Error(), "link capacity") {
		t.Fatalf("negative LinkCapacity must be rejected at construction, got: %v", err)
	}
	_, err = NewSession(env, []*scan.Block{blk}, SessionConfig{Procs: 0, Domain: genRegion()})
	if err == nil {
		t.Fatal("zero Procs must be rejected")
	}
}

// TestSessionFaultInjection wires an injector through SessionConfig: a crash
// on the halo-exchange/pipeline traffic must propagate out of Run with peers
// canceled rather than hanging the session.
func TestSessionFaultInjection(t *testing.T) {
	inj := fault.MustNew(fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Op: fault.OpSend, Rank: 0, Peer: fault.Any, Tag: fault.Any, Action: fault.ActCrash}}})
	sess, blk := sessionFixture(t, SessionConfig{Procs: 3, Block: 3, Faults: inj})
	err := sess.Run(func(r *Rank) error { return r.Exec(blk) })
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("injected crash must propagate out of Session.Run, got: %v", err)
	}
	if inj.Fired() == 0 {
		t.Fatal("injector reports zero fired rules after a crashed run")
	}
}

// TestSessionBoundedLinks pins that a fault-free session run over bounded
// links is bit-identical to the unbounded run.
func TestSessionBoundedLinks(t *testing.T) {
	blk := genScanBlock(rand.New(rand.NewSource(7)))
	ref := genEnv(7)
	refSess, err := NewSession(ref, []*scan.Block{blk}, SessionConfig{Procs: 3, Domain: genRegion(), Block: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := refSess.Run(func(r *Rank) error { return r.Exec(blk) }); err != nil {
		t.Fatal(err)
	}
	env := genEnv(7)
	sess, err := NewSession(env, []*scan.Block{blk},
		SessionConfig{Procs: 3, Domain: genRegion(), Block: 3, LinkCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(func(r *Rank) error { return r.Exec(blk) }); err != nil {
		t.Fatalf("bounded session run failed: %v", err)
	}
	bounds := genBounds()
	for _, name := range genNames {
		if diff := env.Arrays[name].MaxAbsDiff(bounds, ref.Arrays[name]); diff != 0 {
			t.Errorf("bounded links changed array %q by %g", name, diff)
		}
	}
}
