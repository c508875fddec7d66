package wavefront_test

// Crash-recovery drill on the Smith-Waterman family: the chaosspec
// "recover" schedule crashes a rank mid-fill, the run must complete via
// restart-from-snapshot, and both the filled tables AND the data-dependent
// traceback must match the straight-Go oracle exactly. The tables carry
// running maxima, so a restart that replayed from a stale snapshot would
// silently shift the alignment — the traceback comparison is what makes
// that visible.

import (
	"bytes"
	"testing"

	"wavefront"
	"wavefront/internal/chaosspec"
	"wavefront/internal/field"
	"wavefront/internal/workload"
)

func TestSWCrashRecoveryBitIdentical(t *testing.T) {
	const n, procs, block = 48, 4, 6
	for _, sched := range []struct {
		name    string
		sched   wavefront.Scheduler
		workers int
	}{
		{"static", wavefront.SchedStatic, 0},
		{"taskdag", wavefront.SchedTaskDAG, 2},
	} {
		t.Run(sched.name, func(t *testing.T) {
			w, err := workload.NewSW(n, 7, field.RowMajor)
			if err != nil {
				t.Fatal(err)
			}
			ref := w.Reference()
			refEnd, refOps := w.TracebackOf(ref)

			rules, err := chaosspec.Rules("recover")
			if err != nil {
				t.Fatal(err)
			}
			inj, err := wavefront.NewFaultInjector(wavefront.FaultPlan{Rules: rules})
			if err != nil {
				t.Fatal(err)
			}
			tr := wavefront.NewTraceRecorder(procs)
			_, err = wavefront.RunPipelined(w.Block(), w.Env, wavefront.Pipeline{
				Procs: procs, Block: block,
				Faults:     inj,
				Trace:      tr,
				Scheduler:  sched.sched,
				Workers:    sched.workers,
				Checkpoint: &wavefront.Checkpoint{Every: 2},
			})
			if err != nil {
				t.Fatalf("crash did not recover: %v", err)
			}
			if inj.Fired() == 0 {
				t.Fatal("crash rule never fired; the run proves nothing")
			}
			for _, name := range []string{"s", "e", "f"} {
				if d := w.Env.Arrays[name].MaxAbsDiff(w.All, ref[name]); d != 0 {
					t.Fatalf("recovered %s diverged from the oracle by %g", name, d)
				}
			}
			end, ops := w.Traceback()
			if end[0] != refEnd[0] || end[1] != refEnd[1] || !bytes.Equal(ops, refOps) {
				t.Fatal("recovered run's traceback diverged from the oracle")
			}
			restores := 0
			for _, ev := range tr.Events() {
				if ev.Rank == 1 && ev.Kind.String() == "restore" {
					restores++
				}
			}
			if restores == 0 {
				t.Fatal("no restore event traced on the crashed rank")
			}
		})
	}
}
