package wavefront_test

// Critical-path analyzer acceptance tests on a real traced Tomcatv run:
// the analyzer's whole-run totals and phase envelope must equal the trace
// summary's (both read trace.RingClass, the one classifier), and an
// intentionally falsified send→recv edge in the recorded stream must be
// caught as a causality violation rather than silently absorbed into the
// path.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"wavefront"
	"wavefront/internal/critpath"
	"wavefront/internal/trace"
)

// tracedTomcatv runs the Tomcatv forward sweep pipelined with a trace
// recorder attached and returns the recorder.
func tracedTomcatv(t *testing.T, procs, block, n int) *wavefront.TraceRecorder {
	t.Helper()
	tc, _ := tomcatvOracle(t, n)
	rec := wavefront.NewTraceRecorder(procs)
	if _, err := wavefront.RunPipelined(tc.ForwardBlock(), tc.Env,
		wavefront.Pipeline{Procs: procs, Block: block, Trace: rec}); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestCritPathReconcilesWithTraceSummary(t *testing.T) {
	// n is large enough that a goroutine start-up delay (hundreds of µs on
	// a time-sliced host) is small beside the waves; at n = 64 it was a
	// third of the run once scatter stopped dominating it.
	const n, procs, block = 256, 4, 8

	// How the ranks of a real run interleave is the scheduler's choice, and
	// with more ranks than CPUs one legal outcome is a path that never
	// leaves one rank (a rank that starts late, or whose gather finishes
	// last). So the accounting identities are checked on real traced runs,
	// and the cross-rank shape on a pipeline whose interleaving is fixed.
	for i := 0; i < 5; i++ {
		rec := tracedTomcatv(t, procs, block, n)
		checkCritPathAccounting(t, analyzeClean(t, rec), rec.Summarize())
	}
	rec := syntheticPipeline(procs, 8)
	rep := analyzeClean(t, rec)
	checkCritPathAccounting(t, rep, rec.Summarize())
	if err := crossRankShape(rep); err != nil {
		t.Errorf("%d-rank synthetic pipeline: %v\n%s", procs, err, rep)
	}
}

// analyzeClean runs the analyzer over rec and fails on an error or on any
// violation: every trace it is given is a clean run's.
func analyzeClean(t *testing.T, rec *wavefront.TraceRecorder) *wavefront.CritPathReport {
	t.Helper()
	rep, err := wavefront.AnalyzeCritPath(rec, nil)
	if err != nil {
		t.Fatalf("AnalyzeCritPath: %v", err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("clean trace produced violations: %+v", rep.Violations)
	}
	return rep
}

// syntheticPipeline records, on a fixed clock, the events a static-schedule
// sweep of tiles tiles over procs ranks records: per rank a scatter, then
// per tile a boundary receive from the rank above (a comm receive nested in
// the wave receive), the tile's compute and a boundary send to the rank
// below (a comm send nested in the wave send), then a gather. Every rank
// starts at 0, so each rank's first tile waits on its upstream's, and the
// critical path runs down the pipeline.
func syntheticPipeline(procs, tiles int) *wavefront.TraceRecorder {
	const phase, comp, msg = 50, 100, 10
	rec := wavefront.NewTraceRecorder(procs)
	var sent []int64 // the rank above's comm-send end per tile
	for r := 0; r < procs; r++ {
		rec.Record(trace.Ev(trace.KindScatter, r, 0, phase))
		clock := int64(phase)
		var ends []int64
		for tile := 0; tile < tiles; tile++ {
			if r > 0 {
				start, end := clock, max(clock, sent[tile])+msg
				recv := trace.Ev(trace.KindRecv, r, start+1, end-1)
				recv.Peer, recv.Tag, recv.Blocked = r-1, tile, max(sent[tile]-start-1, 0)
				wave := trace.Ev(trace.KindWaveRecv, r, start, end)
				wave.Peer, wave.Wave, wave.Seq = r-1, 0, tile
				rec.Record(recv)
				rec.Record(wave)
				clock = end
			}
			c := trace.Ev(trace.KindCompute, r, clock, clock+comp)
			c.Wave, c.Tile = 0, tile
			if r > 0 {
				c.Peer, c.Need = r-1, tile
			}
			rec.Record(c)
			clock += comp
			if r < procs-1 {
				send := trace.Ev(trace.KindSend, r, clock+1, clock+msg-1)
				send.Peer, send.Tag = r+1, tile
				wave := trace.Ev(trace.KindWaveSend, r, clock, clock+msg)
				wave.Peer, wave.Wave, wave.Seq = r+1, 0, tile
				rec.Record(send)
				rec.Record(wave)
				ends = append(ends, send.End)
				clock += msg
			}
		}
		rec.Record(trace.Ev(trace.KindGather, r, clock, clock+phase))
		sent = ends
	}
	return rec
}

func checkCritPathAccounting(t *testing.T, rep *wavefront.CritPathReport, sum *wavefront.TraceSummary) {
	t.Helper()
	// Whole-run totals and envelope: the analyzer and trace.Summarize read
	// one classification of the same rings, so they agree to the
	// nanosecond — no tolerance.
	var busy, comm, wait time.Duration
	for _, rs := range sum.Ranks {
		busy += rs.Busy
		comm += rs.Comm
		wait += rs.Wait
	}
	checks := []struct {
		name      string
		got, want int64
	}{
		{"busy", rep.TotalBusyNs, int64(busy)},
		{"comm", rep.TotalCommNs, int64(comm)},
		{"wait", rep.TotalWaitNs, int64(wait)},
		{"wall", rep.WallNs, int64(sum.Wall)},
		{"fill", rep.FillNs, int64(sum.Fill)},
		{"drain", rep.DrainNs, int64(sum.Drain)},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s: critpath %dns != summary %dns", c.name, c.got, c.want)
		}
	}

	// The attribution invariant: every instant of the path interval is
	// charged to exactly one class, and the phase split partitions the
	// same interval.
	span := rep.PathEndNs - rep.PathStartNs
	if got := rep.PathComputeNs + rep.PathCommNs + rep.PathWaitNs + rep.PathOtherNs; got != span {
		t.Errorf("attribution %dns != path interval %dns", got, span)
	}
	if got := rep.PathFillNs + rep.PathSteadyNs + rep.PathDrainNs; got != span {
		t.Errorf("phase split %dns != path interval %dns", got, span)
	}
	if rep.String() == "" {
		t.Error("Report.String is empty")
	}
}

// crossRankShape says why rep's path is not a real cross-rank walk, or nil:
// it must cover most of the wall clock (the backward walk may stop after
// the initial scatter, so it need not reach the very first timestamp) and
// cross at least one message edge, which puts it on at least two rings
// (ByRing lists only rings the path visits).
func crossRankShape(rep *wavefront.CritPathReport) error {
	if rep.Coverage < 0.75 {
		return fmt.Errorf("path covers %.2f of the wall clock, want most of it", rep.Coverage)
	}
	crossed := 0
	for _, s := range rep.Steps {
		if s.Edge == "msg" {
			crossed++
		}
	}
	if crossed == 0 {
		return errors.New("critical path never crossed a send→recv edge")
	}
	if len(rep.ByRing) < 2 {
		return fmt.Errorf("ByRing has %d entries, want >= 2", len(rep.ByRing))
	}
	return nil
}

// TestCritPathCatchesFalsifiedEdge intentionally breaks one recorded
// send→recv edge of a real Tomcatv trace — the receive is rewritten to
// complete before its matching send began — and demands the analyzer
// refuse the trace with a causality violation.
func TestCritPathCatchesFalsifiedEdge(t *testing.T) {
	const n, procs, block = 64, 4, 8
	rec := tracedTomcatv(t, procs, block, n)
	events := rec.Events()

	// Find a boundary send from rank 0 to rank 1 and its matched receive
	// (same wave and sequence number, FIFO per link — the first occurrence
	// of each matches).
	si := -1
	for i, ev := range events {
		if ev.Kind == trace.KindWaveSend && ev.Rank == 0 && ev.Peer == 1 {
			si = i
			break
		}
	}
	if si < 0 {
		t.Fatal("trace has no rank 0 → 1 boundary send")
	}
	send := events[si]
	ri := -1
	for i, ev := range events {
		if ev.Kind == trace.KindWaveRecv && ev.Rank == 1 && ev.Peer == 0 &&
			ev.Wave == send.Wave && ev.Seq == send.Seq {
			ri = i
			break
		}
	}
	if ri < 0 {
		t.Fatal("boundary send has no matching receive in the trace")
	}
	// Falsify: the receive now ends strictly before the send starts.
	events[ri].End = send.Start - 1
	events[ri].Start = send.Start - 2
	events[ri].Blocked = 0

	rep, err := critpath.Analyze(events, critpath.Options{Procs: procs})
	if err == nil {
		t.Fatal("analyzer accepted a receive that completed before its send began")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Kind == "causality" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no causality violation recorded: %+v", rep.Violations)
	}
	if !strings.Contains(rep.String(), "VIOLATION") {
		t.Error("Report.String does not surface the violation")
	}
}
