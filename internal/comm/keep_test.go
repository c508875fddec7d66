package comm

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// goid returns the calling goroutine's ID, the number runtime.Stack prints
// after "goroutine ".
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// keptGoroutines returns the IDs of the goroutines a topology keeps — rank
// goroutines, watchdogs, a socket transport's accept and demux loops — that
// others does not hold.
func keptGoroutines(others map[string]bool) map[string]bool {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for ; n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	ids := map[string]bool{}
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		f := strings.Fields(g)
		if len(f) < 2 || others[f[1]] {
			continue
		}
		for _, frame := range []string{"(*topology).serve", "(*topology).watchdog", "(*sockTransport).demux", "(*sockTransport).acceptLoop"} {
			if strings.Contains(g, "internal/comm."+frame) {
				ids[f[1]] = true
			}
		}
	}
	return ids
}

// settleKept waits until no goroutine a topology keeps is left but others',
// collecting garbage on every turn when collect is set, and fails with what
// it saw when two seconds pass first.
func settleKept(t *testing.T, others map[string]bool, what string, collect bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); len(keptGoroutines(others)) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d kept goroutines left, want none", what, len(keptGoroutines(others)))
		}
		if collect {
			runtime.GC()
		}
	}
}

// pingPong is a Run body that moves one message each way between ranks 0
// and 1 and records, per rank, the goroutine it ran on.
func pingPong(ids []string) func(e *Endpoint) error {
	return func(e *Endpoint) error {
		ids[e.Rank()] = goid()
		switch e.Rank() {
		case 0:
			if err := e.Send(1, 0, []float64{1}); err != nil {
				return err
			}
			_, err := e.Recv(1, 0)
			return err
		case 1:
			d, err := e.Recv(0, 0)
			if err != nil {
				return err
			}
			return e.Send(0, 0, d)
		}
		return nil
	}
}

// TestRunKeepsRankGoroutines: the first Run starts one goroutine per rank
// and a watchdog, and every later Run — over the channel transport and over
// both sockets, whose connections and demux loops stay up too — hands its
// body to the same goroutines and starts none. Close stops them all.
func TestRunKeepsRankGoroutines(t *testing.T) {
	for _, kind := range []TransportKind{TransportChan, TransportTCP, TransportUnix} {
		t.Run(kind.String(), func(t *testing.T) {
			others := keptGoroutines(nil)
			topo, err := NewTopology(3)
			if err != nil {
				t.Fatal(err)
			}
			if err := topo.SetTransport(TransportConfig{Kind: kind}); err != nil {
				t.Fatal(err)
			}
			first := make([]string, 3)
			if err := topo.Run(pingPong(first)); err != nil {
				t.Fatal(err)
			}
			kept := keptGoroutines(others)
			want := 3 + 1 // the ranks and the watchdog
			if kind != TransportChan {
				want += 1 + 2 // the accept loop and a demux loop per link used
			}
			if len(kept) != want {
				t.Fatalf("%d goroutines kept after the first Run, want %d", len(kept), want)
			}
			for run := 0; run < 3; run++ {
				topo.Reset()
				ids := make([]string, 3)
				if err := topo.Run(pingPong(ids)); err != nil {
					t.Fatal(err)
				}
				for r := range ids {
					if ids[r] != first[r] {
						t.Errorf("Run %d: rank %d ran on goroutine %s, the first Run's on %s", run, r, ids[r], first[r])
					}
				}
				if now := keptGoroutines(others); len(now) != len(kept) {
					t.Errorf("Run %d: %d goroutines kept, the first Run left %d", run, len(now), len(kept))
				} else {
					for id := range kept {
						if !now[id] {
							t.Errorf("Run %d: the first Run's goroutine %s is gone", run, id)
						}
					}
				}
			}
			topo.Close()
			settleKept(t, others, "after Close", false)
		})
	}
}

// TestResetStartsTheNextRunAfresh: a Run that fails leaves its topology
// canceled, with a message queued and its traffic counted; Reset clears all
// of it, and the next Run on the same goroutines succeeds and counts only
// its own traffic. Without Reset the cancellation stays.
func TestResetStartsTheNextRunAfresh(t *testing.T) {
	topo, err := NewTopology(2)
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	boom := errors.New("boom")
	err = topo.Run(func(e *Endpoint) error {
		if e.Rank() == 0 {
			if err := e.Send(1, 0, []float64{1, 2, 3}); err != nil {
				return err
			}
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failing Run returned %v, want %v", err, boom)
	}
	if topo.PendingMessages() != 1 || topo.Stats().Messages != 1 || topo.Err() == nil {
		t.Fatalf("after the failed Run: %d pending, %d counted, cause %v; want 1, 1 and a cause",
			topo.PendingMessages(), topo.Stats().Messages, topo.Err())
	}
	ids := make([]string, 2)
	if err := topo.Run(pingPong(ids)); !errors.Is(err, boom) {
		t.Fatalf("Run without Reset after a cancellation returned %v, want the cause %v", err, boom)
	}
	topo.Reset()
	if topo.PendingMessages() != 0 || topo.Stats() != (Stats{}) || topo.Err() != nil {
		t.Fatalf("after Reset: %d pending, stats %+v, cause %v; want none", topo.PendingMessages(), topo.Stats(), topo.Err())
	}
	if err := topo.Run(pingPong(ids)); err != nil {
		t.Fatalf("Run after Reset: %v", err)
	}
	if st := topo.Stats(); st.Messages != 2 || st.Elements != 2 {
		t.Errorf("Run after Reset counted %d messages of %d elements, want its own 2 of 2", st.Messages, st.Elements)
	}
}

// TestRunAfterCloseStartsAgain: a Run after Close starts the goroutines
// again on the channel transport, and the next Close stops them.
func TestRunAfterCloseStartsAgain(t *testing.T) {
	others := keptGoroutines(nil)
	topo, err := NewTopology(2)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 2)
	for round := 0; round < 2; round++ {
		topo.Reset()
		if err := topo.Run(pingPong(ids)); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := len(keptGoroutines(others)); got != 3 {
			t.Fatalf("round %d: %d goroutines kept, want 2 ranks and a watchdog", round, got)
		}
		topo.Close()
		settleKept(t, others, "after Close", false)
	}
}

// TestDroppedTopologyIsClosed: a topology that becomes unreachable without
// Close has its goroutines — a socket transport's included — stopped once
// the collector finds it: they hold the topology's state, never its handle.
func TestDroppedTopologyIsClosed(t *testing.T) {
	for _, kind := range []TransportKind{TransportChan, TransportUnix} {
		t.Run(kind.String(), func(t *testing.T) {
			others := keptGoroutines(nil)
			func() {
				topo, err := NewTopology(2)
				if err != nil {
					t.Fatal(err)
				}
				if err := topo.SetTransport(TransportConfig{Kind: kind}); err != nil {
					t.Fatal(err)
				}
				if err := topo.Run(pingPong(make([]string, 2))); err != nil {
					t.Fatal(err)
				}
				if len(keptGoroutines(others)) == 0 {
					t.Fatal("the Run left no goroutine to stop; the check watches nothing")
				}
			}()
			settleKept(t, others, "after the topology became unreachable", true)
		})
	}
}
