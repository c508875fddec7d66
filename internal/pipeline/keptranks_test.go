package pipeline

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"wavefront/internal/comm"
	"wavefront/internal/scan"
	"wavefront/internal/workload"
)

// rankGoroutines returns the IDs of the goroutines a session's topology
// keeps — one per rank, the deadlock watchdog, a socket transport's accept
// and demux loops — that others does not hold.
func rankGoroutines(others map[string]bool) map[string]bool {
	return goroutinesIn([]string{"comm.(*topology).serve", "comm.(*topology).watchdog",
		"comm.(*sockTransport).demux", "comm.(*sockTransport).acceptLoop"}, others)
}

// goid returns the calling goroutine's ID.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// serialIteration runs keptBody's iteration serially over tom's arrays and
// returns the residual: what a session Run from the same arrays must make,
// bit for bit.
func serialIteration(t *testing.T, tom *workload.Tomcatv, blocks []*scan.Block) float64 {
	t.Helper()
	for _, b := range blocks {
		if err := scan.Exec(b, tom.Env, scan.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	v, err := scan.Reduce(scan.MaxReduce, tom.Interior, residOperand(), tom.Env)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// checkRunMatchesSerial runs keptBody on sess and the same iteration
// serially from a copy of tom's arrays, and fails unless both make the same
// arrays and residual bit for bit.
func checkRunMatchesSerial(t *testing.T, what string, sess *Session, tom *workload.Tomcatv, blocks []*scan.Block) {
	t.Helper()
	serial, serialBlocks := keptProgram(t, tom.N, tom.Env.Scalars["w"])
	for name, f := range tom.Env.Arrays {
		copy(serial.Env.Arrays[name].Data(), f.Data())
	}
	want := serialIteration(t, serial, serialBlocks)
	var resid float64
	if err := sess.Run(keptBody(tom, blocks, &resid)); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := sameArrays(tom, serial); err != nil {
		t.Errorf("%s: the Run differs from serial: %v", what, err)
	}
	if math.Float64bits(resid) != math.Float64bits(want) {
		t.Errorf("%s: residual %v, serial %v", what, resid, want)
	}
}

// TestStaticWarmRunStartsNoGoroutine: a static two-rank session starts its
// ranks' goroutines and the watchdog — and over a unix socket its accept
// and demux loops — in the first Run and parks them between Runs: every
// warm Run hands each rank's body to the goroutine the first Run's ran on
// and starts none, and each is bit for bit what serial makes of its input.
func TestStaticWarmRunStartsNoGoroutine(t *testing.T) {
	for _, kind := range []comm.TransportKind{comm.TransportChan, comm.TransportUnix} {
		t.Run(kind.String(), func(t *testing.T) {
			others := rankGoroutines(nil)
			tom, blocks := keptProgram(t, 40, 1.125)
			sess, err := NewSession(tom.Env, blocks, Config{Procs: 2, Domain: tom.All, Block: 8,
				Transport: comm.TransportConfig{Kind: kind}})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			var resid float64
			body := keptBody(tom, blocks, &resid)
			ids := make([]string, 2)
			if err := sess.Run(func(r *Rank) error {
				ids[r.ID()] = goid()
				return body(r)
			}); err != nil {
				t.Fatal(err)
			}
			first, kept := append([]string(nil), ids...), rankGoroutines(others)
			want := 2 + 1
			if kind == comm.TransportUnix {
				want += 1 + 2 // accept, and a demux loop per direction
			}
			if len(kept) != want {
				t.Fatalf("the first Run left %d goroutines, want %d", len(kept), want)
			}
			for run := 0; run < 3; run++ {
				checkRunMatchesSerial(t, "warm Run", sess, tom, blocks)
				if err := sess.Run(func(r *Rank) error {
					ids[r.ID()] = goid()
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				for r := range ids {
					if ids[r] != first[r] {
						t.Errorf("warm Run %d: rank %d ran on goroutine %s, the first Run's on %s", run, r, ids[r], first[r])
					}
				}
				if now := rankGoroutines(others); len(now) != len(kept) {
					t.Errorf("warm Run %d: %d goroutines, the first Run left %d", run, len(now), len(kept))
				} else {
					for id := range kept {
						if !now[id] {
							t.Errorf("warm Run %d: the first Run's goroutine %s is gone", run, id)
						}
					}
				}
			}
		})
	}
}

// TestSessionRanksStopAtClose: no rank goroutine, watchdog or socket demux
// loop outlives Session.Close; a Run after Close starts them again and
// still computes what serial does, and the next Close stops them too.
func TestSessionRanksStopAtClose(t *testing.T) {
	for _, kind := range []comm.TransportKind{comm.TransportChan, comm.TransportUnix} {
		t.Run(kind.String(), func(t *testing.T) {
			base, others := runtime.NumGoroutine(), rankGoroutines(nil)
			tom, blocks := keptProgram(t, 40, 1.125)
			sess, err := NewSession(tom.Env, blocks, Config{Procs: 2, Domain: tom.All, Block: 8,
				Transport: comm.TransportConfig{Kind: kind}})
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 2; round++ {
				checkRunMatchesSerial(t, "Run", sess, tom, blocks)
				checkRunMatchesSerial(t, "warm Run", sess, tom, blocks)
				if len(rankGoroutines(others)) == 0 {
					t.Fatal("the Runs left no goroutine; the check watches nothing")
				}
				sess.Close()
				settleGoroutines(t, rankGoroutines, others, base, "after Close", false)
			}
		})
	}
}

// TestDroppedSessionStopsRanks: a session that becomes unreachable without
// Close has its ranks' goroutines stopped once the collector finds it — they
// hold the topology's state, never the session or the topology's handle.
func TestDroppedSessionStopsRanks(t *testing.T) {
	for _, kind := range []comm.TransportKind{comm.TransportChan, comm.TransportUnix} {
		t.Run(kind.String(), func(t *testing.T) {
			base, others := runtime.NumGoroutine(), rankGoroutines(nil)
			func() {
				tom, blocks := keptProgram(t, 40, 1.125)
				sess, err := NewSession(tom.Env, blocks, Config{Procs: 2, Domain: tom.All, Block: 8,
					Transport: comm.TransportConfig{Kind: kind}})
				if err != nil {
					t.Fatal(err)
				}
				var resid float64
				if err := sess.Run(keptBody(tom, blocks, &resid)); err != nil {
					t.Fatal(err)
				}
				if len(rankGoroutines(others)) == 0 {
					t.Fatal("the Run left no goroutine; the check watches nothing")
				}
			}()
			settleGoroutines(t, rankGoroutines, others, base, "after the session became unreachable", true)
		})
	}
}

// TestCancelBetweenRunsIsNoOp: Cancel with no Run in flight — before the
// first, or between two on the kept topology — reaches no Run: the next
// one succeeds on the same goroutines and is bit for bit serial's.
func TestCancelBetweenRunsIsNoOp(t *testing.T) {
	tom, blocks := keptProgram(t, 40, 1.125)
	sess, err := NewSession(tom.Env, blocks, Config{Procs: 2, Domain: tom.All, Block: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	sess.Cancel(errors.New("before the first Run"))
	checkRunMatchesSerial(t, "first Run", sess, tom, blocks)
	topo := sess.topo
	sess.Cancel(errors.New("between Runs"))
	checkRunMatchesSerial(t, "Run after an idle Cancel", sess, tom, blocks)
	if sess.topo != topo {
		t.Error("an idle Cancel made the next Run build another topology")
	}
}

// TestRunAfterFailedRun: a Run that is canceled, and one in which a rank
// fails, throws its topology away; the next Run builds another, and it and
// the warm Run after it are each bit for bit what serial makes of the
// arrays the failed Run left.
func TestRunAfterFailedRun(t *testing.T) {
	boom := errors.New("rank 1 gives up")
	for _, c := range []struct {
		name string
		body func(sess *Session, inner func(*Rank) error) func(*Rank) error
		want error
	}{
		{"canceled", func(sess *Session, inner func(*Rank) error) func(*Rank) error {
			return func(r *Rank) error {
				if r.ID() == 0 {
					sess.Cancel(boom)
				}
				return inner(r)
			}
		}, comm.ErrCanceled},
		{"failed", func(_ *Session, inner func(*Rank) error) func(*Rank) error {
			return func(r *Rank) error {
				if err := inner(r); err != nil || r.ID() == 0 {
					return err
				}
				return boom
			}
		}, boom},
	} {
		t.Run(c.name, func(t *testing.T) {
			tom, blocks := keptProgram(t, 40, 1.125)
			sess, err := NewSession(tom.Env, blocks, Config{Procs: 2, Domain: tom.All, Block: 8})
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			checkRunMatchesSerial(t, "first Run", sess, tom, blocks)
			var resid float64
			if err := sess.Run(c.body(sess, keptBody(tom, blocks, &resid))); !errors.Is(err, c.want) {
				t.Fatalf("the %s Run returned %v, want %v", c.name, err, c.want)
			}
			if sess.topo != nil {
				t.Errorf("the %s Run kept its topology", c.name)
			}
			checkRunMatchesSerial(t, "Run after the "+c.name+" one", sess, tom, blocks)
			checkRunMatchesSerial(t, "warm Run after that", sess, tom, blocks)
		})
	}
}

// TestSessionStatsCountOneRun: SessionStats.Comm is the traffic of the last
// Run, not of the session's life: every Run of the same body reads what a
// fresh session's only Run does.
func TestSessionStatsCountOneRun(t *testing.T) {
	tom, blocks := keptProgram(t, 40, 1.125)
	fresh, freshBlocks := keptProgram(t, 40, 1.125)
	cfg := Config{Procs: 2, Domain: tom.All, Block: 8}
	one, err := NewSession(fresh.Env, freshBlocks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var resid float64
	if err := one.Run(keptBody(fresh, freshBlocks, &resid)); err != nil {
		t.Fatal(err)
	}
	one.Close()
	want := one.Stats().Comm
	if want.Messages == 0 {
		t.Fatal("the iteration moved no message; the check watches nothing")
	}
	sess, err := NewSession(tom.Env, blocks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for run := 0; run < 3; run++ {
		if err := sess.Run(keptBody(tom, blocks, &resid)); err != nil {
			t.Fatal(err)
		}
		if got := sess.Stats().Comm; got.Messages != want.Messages || got.Elements != want.Elements {
			t.Errorf("Run %d: %d messages of %d elements, a fresh session's Run %d of %d",
				run, got.Messages, got.Elements, want.Messages, want.Elements)
		}
	}
}
