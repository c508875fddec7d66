package pipeline

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"wavefront/internal/bufpool"
	"wavefront/internal/comm"
	"wavefront/internal/critpath"
	"wavefront/internal/expr"
	"wavefront/internal/fault"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/metrics"
	"wavefront/internal/scan"
	"wavefront/internal/trace"
	"wavefront/internal/workload"
)

// accountLeg is one configuration TestOneAccount and TestValidateAcrossRuns
// run the Tomcatv iteration under.
type accountLeg struct {
	name string
	set  func(*Config)
	runs int
}

var accountLegs = []accountLeg{
	{"static", func(*Config) {}, 1},
	{"taskdag-w2", func(c *Config) { c.Scheduler, c.Workers = scan.SchedTaskDAG, 2 }, 1},
	{"unix", func(c *Config) { c.Transport.Kind = comm.TransportUnix }, 1},
	{"bounded", func(c *Config) { c.LinkCapacity = 1 }, 1},
	{"pool", func(c *Config) { c.Pool = bufpool.New(2) }, 1},
	{"ckpt-crash", func(c *Config) {
		c.Checkpoint = &CheckpointConfig{Every: 2}
		c.Faults = fault.MustNew(fault.Plan{Rules: []fault.Rule{{
			Op: fault.OpRecv, Rank: 1, Peer: 0, Tag: fault.Any, Wave: 3, After: 2, Action: fault.ActCrash}}})
	}, 1},
	{"three-runs", func(*Config) {}, 3},
}

// runAccountLeg runs two Tomcatv iterations, each with its residual
// reduction and a user barrier, leg.runs times in one session over the given
// observers, and returns the session and the recorder's clock just before
// the last Run.
func runAccountLeg(t *testing.T, leg accountLeg, tr *trace.Recorder, reg *metrics.Registry) (*Session, int64) {
	t.Helper()
	const n, procs = 64, 2
	tom, err := workload.NewTomcatv(n, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Procs: procs, Domain: tom.All, Block: 8, Trace: tr, Metrics: reg}
	leg.set(&cfg)
	blocks := tom.Blocks()
	sess, err := NewSession(tom.Env, blocks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sess.Close() })
	node := residOperand()
	var lastStart int64
	for run := 0; run < leg.runs; run++ {
		lastStart = tr.Now()
		err := sess.Run(func(r *Rank) error {
			for it := 0; it < 2; it++ {
				for _, b := range blocks {
					if err := r.Exec(b); err != nil {
						return err
					}
				}
				if _, err := r.Reduce(scan.MaxReduce, tom.Interior, node); err != nil {
					return err
				}
				if err := r.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
	return sess, lastStart
}

// accountRecorder sizes a recorder for a leg: the ranks' rings and, under
// the task DAG, two worker rings a rank.
func accountRecorder(leg accountLeg) *trace.Recorder {
	var cfg Config
	leg.set(&cfg)
	return trace.New(2*(1+cfg.Workers), 1<<14)
}

// perRankCounters are the registry's span-borne counters, each with the
// same figure counted over one rank ring's events.
var perRankCounters = []struct {
	name string
	of   func(ev *trace.Event) int64
}{
	{metrics.CommSends, func(ev *trace.Event) int64 { return is(ev.Kind == trace.KindSend) }},
	{metrics.CommRecvs, func(ev *trace.Event) int64 { return is(ev.Kind == trace.KindRecv) }},
	{metrics.CommSendBytes, func(ev *trace.Event) int64 { return is(ev.Kind == trace.KindSend) * 8 * int64(ev.Elems) }},
	{metrics.CommRecvBytes, func(ev *trace.Event) int64 { return is(ev.Kind == trace.KindRecv) * 8 * int64(ev.Elems) }},
	{metrics.CommBlockedNs, func(ev *trace.Event) int64 {
		return is(ev.Kind == trace.KindSend || ev.Kind == trace.KindRecv) * ev.Blocked
	}},
	{metrics.CommStalls, func(ev *trace.Event) int64 { return is(ev.Kind == trace.KindSend && ev.Blocked > 0) }},
	{metrics.CommFaults, func(ev *trace.Event) int64 { return is(ev.Kind == trace.KindFault) }},
	{metrics.CommCancels, func(ev *trace.Event) int64 { return is(ev.Kind == trace.KindCancel) }},
	{metrics.PipeTiles, func(ev *trace.Event) int64 { return is(ev.Kind == trace.KindCompute && ev.Tile >= 0) }},
	{metrics.PipePoints, func(ev *trace.Event) int64 {
		return is(ev.Kind == trace.KindCompute && ev.Tile >= 0) * int64(ev.Elems)
	}},
	{metrics.PipeWaveMsgs, func(ev *trace.Event) int64 { return is(ev.Kind == trace.KindWaveSend) }},
	{metrics.PipeWaveElems, func(ev *trace.Event) int64 { return is(ev.Kind == trace.KindWaveSend) * int64(ev.Elems) }},
	{metrics.SessExchanges, func(ev *trace.Event) int64 { return is(ev.Kind == trace.KindExchange) }},
	{metrics.SessReductions, func(ev *trace.Event) int64 { return is(ev.Kind == trace.KindReduce) }},
	{metrics.CkptSnapshots, func(ev *trace.Event) int64 { return is(ev.Kind == trace.KindCkpt) }},
	{metrics.CkptRestores, func(ev *trace.Event) int64 { return is(ev.Kind == trace.KindRestore) }},
}

func is(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// deterministicCounters are the counts a run reproduces whatever observes
// it: what a metrics-only leg must share with the leg that also traces.
var deterministicCounters = []string{
	metrics.CommSends, metrics.CommRecvs, metrics.CommSendBytes, metrics.CommRecvBytes,
	metrics.PipeTiles, metrics.PipePoints, metrics.PipeWaves, metrics.PipeWaveMsgs, metrics.PipeWaveElems,
	metrics.SessExchanges, metrics.SessReductions, metrics.SessBarriers,
	metrics.CkptSnapshots, metrics.CkptRestores, metrics.CommFaults,
}

// checkRankAccount holds the registry's busy and wait time of one rank to
// the summary's and each span-borne counter to the same figure counted over
// the rank ring's events.
func checkRankAccount(t *testing.T, rank int, events []trace.Event, reg *metrics.Registry, sum *trace.Summary) {
	t.Helper()
	if got, want := reg.Counter(metrics.PipeBusyNs).Rank(rank), int64(sum.Ranks[rank].Busy); got != want {
		t.Errorf("rank %d: pipeline_busy_ns_total %d, the summary's busy %d", rank, got, want)
	}
	if got, want := reg.Counter(metrics.PipeWaitNs).Rank(rank), int64(sum.Ranks[rank].Wait); got != want {
		t.Errorf("rank %d: pipeline_wait_ns_total %d, the summary's wait %d", rank, got, want)
	}
	for _, c := range perRankCounters {
		var want int64
		for i := range events {
			want += c.of(&events[i])
		}
		if got := reg.Counter(c.name).Rank(rank); got != want {
			t.Errorf("rank %d: %s = %d, the ring's events give %d", rank, c.name, got, want)
		}
	}
}

// TestOneAccountThroughATemporary: a plain statement whose anti-dependences
// contradict (a := a@north + a@south) runs through scan.Exec's temporary,
// which records kernel spans straight to the ring. The rank wraps them in one
// compute event like any parallel block's, so the registry's busy time and
// point count see the block and the summary counts the wrapper, not the
// spans inside it.
func TestOneAccountThroughATemporary(t *testing.T) {
	const n, procs = 24, 2
	bounds, inner := grid.Square(2, 0, n+1), grid.Square(2, 1, n)
	a := field.MustNew("a", bounds, field.RowMajor)
	a.FillFunc(bounds, func(p grid.Point) float64 { return 0.5*float64(p[0]) + 0.01*float64(p[1]) })
	want := a.Clone()
	env := &expr.MapEnv{Arrays: map[string]*field.Field{"a": a}, Scalars: map[string]float64{}}
	smooth := scan.NewPlain(inner, scan.Stmt{LHS: expr.Ref("a"), RHS: expr.MulN(expr.Const(0.5),
		expr.AddN(expr.Ref("a").At(grid.North), expr.Ref("a").At(grid.South)))})
	oracle := &expr.MapEnv{Arrays: map[string]*field.Field{"a": want}, Scalars: env.Scalars}
	if err := scan.Exec(smooth, oracle, scan.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	tr, reg := trace.New(procs, 1<<10), metrics.New(procs)
	sess, err := NewSession(env, []*scan.Block{smooth}, Config{Procs: procs, Domain: bounds, Block: 8, Trace: tr, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !sess.plans[smooth].an.NeedsTemp() {
		t.Fatal("the statement does not need a temporary; the test proves nothing")
	}
	if err := sess.Run(func(r *Rank) error { return r.Exec(smooth) }); err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(a.Data(), want.Data()) {
		t.Error("the session's result differs from serial execution")
	}
	sum := sess.Stats().Summary
	for rank := 0; rank < procs; rank++ {
		events := tr.RankEvents(rank)
		kernels, computes := 0, 0
		for i := range events {
			kernels += int(is(events[i].Kind == trace.KindKernel))
			computes += int(is(events[i].Kind == trace.KindCompute))
		}
		if kernels == 0 || computes != 1 {
			t.Errorf("rank %d: %d kernel spans under %d compute events, want some under one", rank, kernels, computes)
		}
		if reg.Counter(metrics.PipeBusyNs).Rank(rank) == 0 {
			t.Errorf("rank %d: the registry saw no busy time", rank)
		}
		if got, want := reg.Counter(metrics.PipePoints).Rank(rank), int64(inner.Size()/procs); got != want {
			t.Errorf("rank %d: pipeline_points_total %d, want its portion's %d", rank, got, want)
		}
		checkRankAccount(t, rank, events, reg, sum)
	}
}

// TestOneAccount: with both observers attached the registry is a fold of
// the events the rings hold, so for every rank ring each span-borne counter
// equals the same figure taken from the trace — to the nanosecond and the
// unit — and the phase gauges equal the summary's; and the registry does not
// need the recorder, so a metrics-only run of the same leg reproduces every
// deterministic count.
func TestOneAccount(t *testing.T) {
	for _, leg := range accountLegs {
		t.Run(leg.name, func(t *testing.T) {
			const procs = 2
			tr, reg := accountRecorder(leg), metrics.New(procs)
			sess, lastStart := runAccountLeg(t, leg, tr, reg)
			if d := tr.Dropped(); d != 0 {
				t.Fatalf("recorder dropped %d events; the comparison needs them all", d)
			}
			sum := sess.Stats().Summary
			env := trace.NewEnvelope()
			for rank := 0; rank < procs; rank++ {
				events := tr.RankEvents(rank)
				checkRankAccount(t, rank, events, reg, sum)
				// The phase gauges are the last Run's, over the rank rings; so
				// is this envelope.
				last := trace.NewRingClass()
				for i := range events {
					if events[i].Start >= lastStart {
						last.Add(&events[i])
					}
				}
				last.Close()
				env.Add(&last)
			}
			// Over one Run with no worker rings (which a summary counts as
			// pipeline stages of their own) that envelope is the summary's.
			if leg.runs == 1 && tr.Procs() == procs && (env.Fill() != sum.Fill || env.Drain() != sum.Drain) {
				t.Fatalf("one Run's envelope (fill %v, drain %v) is not the summary's (%v, %v)", env.Fill(), env.Drain(), sum.Fill, sum.Drain)
			}
			snap := reg.Snapshot()
			if got := snap.Gauges[metrics.PipeFillNs]; got != float64(env.Fill()) {
				t.Errorf("pipeline_fill_ns %g, the trace's fill %d", got, env.Fill())
			}
			if got := snap.Gauges[metrics.PipeDrainNs]; got != float64(env.Drain()) {
				t.Errorf("pipeline_drain_ns %g, the trace's drain %d", got, env.Drain())
			}
			if got, want := snap.Histograms[metrics.PipeTileNs].Count, snap.Counters[metrics.PipeTiles].Total; got != want {
				t.Errorf("tile histogram holds %d samples, %d tiles ran", got, want)
			}
			if got, want := snap.Counters[metrics.SessBarriers].Total, int64(procs*2*leg.runs); got != want {
				t.Errorf("session_barriers_total %d, want %d", got, want)
			}

			only := metrics.New(procs)
			runAccountLeg(t, leg, nil, only)
			for _, name := range deterministicCounters {
				for rank := 0; rank < procs; rank++ {
					if got, want := only.Counter(name).Rank(rank), reg.Counter(name).Rank(rank); got != want {
						t.Errorf("metrics only, rank %d: %s = %d, %d with the recorder attached", rank, name, got, want)
					}
				}
			}
		})
	}
}

// TestValidateAcrossRuns: a recorder that has seen several Runs of one
// session holds every tag and wave number several times over. The validator
// and the analyzer read one index, which pairs first in first out and checks
// a tile against its own sweep's receives, so both accept the trace — and
// both refuse it once a tile of the last Run is moved before a boundary
// message it needs, or that message's receive is missing, although an
// earlier Run's message of the same name had long arrived.
func TestValidateAcrossRuns(t *testing.T) {
	for _, leg := range accountLegs[:2] {
		for _, runs := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/%d-runs", leg.name, runs), func(t *testing.T) {
				leg := leg
				leg.runs = runs
				tr := accountRecorder(leg)
				_, lastStart := runAccountLeg(t, leg, tr, nil)
				if err := trace.ValidateRecorder(tr); err != nil {
					t.Fatalf("a correct schedule recorded over %d Runs is refused: %v", runs, err)
				}
				opts := critpath.Options{Procs: 2, Tolerant: true}
				events := tr.Events()
				if rep, _ := critpath.Analyze(events, opts); len(rep.Violations) != 0 {
					t.Fatalf("the analyzer finds %d violations in it, first: %+v", len(rep.Violations), rep.Violations[0])
				}
				var need *trace.Event
				for i := range events {
					if ev := &events[i]; ev.Kind == trace.KindWaveRecv && ev.Start >= lastStart && ev.Seq == 0 {
						need = ev
					}
					if ev := &events[i]; need != nil && ev.Kind == trace.KindCompute && ev.Rank == need.Rank &&
						ev.Peer == need.Peer && ev.Wave == need.Wave && ev.Need >= 0 {
						ev.Start = need.End - 1
						break
					}
				}
				if need == nil {
					t.Fatal("the last Run received no boundary message")
				}
				if err := trace.Validate(events); err == nil {
					t.Error("the validator accepts a tile of the last Run started before its boundary message")
				}
				if rep, _ := critpath.Analyze(events, opts); len(rep.Violations) == 0 {
					t.Error("the analyzer reports no violation where the validator refuses")
				}
				// Nor does an earlier Run's receive stand in for one the last
				// Run never recorded.
				events = tr.Events()
				for i := range events {
					if ev := &events[i]; ev.Kind == trace.KindWaveRecv && ev.Start >= lastStart && ev.Seq == 0 {
						events = append(events[:i], events[i+1:]...)
						break
					}
				}
				unsafe := false
				for _, f := range trace.NewIndex(events, trace.Layout{}, 0).Check() {
					unsafe = unsafe || f.Kind == "wavefront"
				}
				if !unsafe {
					t.Error("a tile of the last Run whose boundary receive is missing passes on an earlier Run's")
				}
			})
		}
	}
}

// TestBarrierWaitCountedOnce: rank 1 waits in a user barrier for a rank that
// sleeps first. That wait is the blocked receive inside the barrier; the
// registry charges it once, as the trace summary does (it used to add the
// barrier's whole duration on top), session_barriers_total still counts the
// barrier, and rank_wait_ratio is served from that one counter.
func TestBarrierWaitCountedOnce(t *testing.T) {
	const n, procs = 512, 2
	const nap = 4 * time.Millisecond
	tom, err := workload.NewTomcatv(n, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	tr, reg := trace.New(procs, 1<<14), metrics.New(procs)
	blocks := tom.Blocks()
	sess, err := NewSession(tom.Env, blocks, Config{Procs: procs, Domain: tom.All, Block: 32, Trace: tr, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Run(func(r *Rank) error {
		for _, b := range blocks {
			if err := r.Exec(b); err != nil {
				return err
			}
		}
		if r.ID() == 0 {
			time.Sleep(nap)
		}
		return r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := sess.Stats().Summary
	for rank := 0; rank < procs; rank++ {
		wait := reg.Counter(metrics.PipeWaitNs).Rank(rank)
		if want := int64(sum.Ranks[rank].Wait); wait != want {
			t.Errorf("rank %d: the registry's wait is %d ns, the summary's %d", rank, wait, want)
		}
		if blocked := reg.Counter(metrics.CommBlockedNs).Rank(rank); blocked > wait {
			t.Errorf("rank %d: %d ns blocked in comm is not part of %d ns of wait", rank, blocked, wait)
		}
		if got := reg.Counter(metrics.SessBarriers).Rank(rank); got != 1 {
			t.Errorf("rank %d: session_barriers_total %d, want 1", rank, got)
		}
	}
	// Rank 1 reaches the barrier about when rank 0 starts its sleep; most of
	// the sleep must show as its wait, however the host schedules the two.
	wait := reg.Counter(metrics.PipeWaitNs).Rank(1)
	if wait < int64(nap)/4 {
		t.Errorf("rank 1 waited out a %v sleep in the barrier, yet its wait is %d ns", nap, wait)
	}
	// The scrape divides by the wall-clock at the moment it is taken, which
	// the two snapshots bracket.
	before := reg.Snapshot().WallNs
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	after := reg.Snapshot().WallNs
	const series = `wavefront_rank_wait_ratio{rank="1"} `
	_, rest, ok := strings.Cut(sb.String(), series)
	if !ok {
		t.Fatalf("no %s in the scrape", series)
	}
	line, _, _ := strings.Cut(rest, "\n")
	ratio, err := strconv.ParseFloat(line, 64)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := float64(wait)/float64(after), float64(wait)/float64(before); ratio < lo*(1-1e-9) || ratio > hi*(1+1e-9) {
		t.Errorf("rank_wait_ratio %g is not pipeline_wait_ns_total over wall, which lies in [%g, %g]", ratio, lo, hi)
	}
}
