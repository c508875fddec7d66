package comm

import (
	"errors"
	"testing"
	"time"

	"wavefront/internal/metrics"
	"wavefront/internal/trace"
)

// parks reports how many waits registered with the deadlock watchdog over
// the topology's lifetime, given how many Runs of it completed: waitGen is
// bumped once per Run, once per retiring rank, and once each by beginWait
// and endWait.
func parks(t *Topology, runs int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return (int(t.waitGen) - runs*(1+t.p)) / 2
}

// TestSpinReceivesWithoutParking: in a ping-pong every receive finds its
// link empty and the answer is a microsecond away — well inside spinBudget —
// so the receivers must take it from the yield-spin, never entering the
// watchdog's wait registry. (Before the spin every one of these receives
// registered and parked.) A tenth may still park: the host deschedules a
// thread for longer than the budget now and then. The time spent spinning
// is still blocked time to the trace and to the metrics.
func TestSpinReceivesWithoutParking(t *testing.T) {
	const trips = 2000
	topo, _ := NewTopology(2)
	tr, reg := trace.New(2, 2*2*trips), metrics.New(2)
	obs, _ := metrics.Observe(tr, reg, 2)
	topo.SetObserver(obs)
	err := topo.Run(func(e *Endpoint) error {
		peer := 1 - e.Rank()
		for i := 0; i < trips; i++ {
			if e.Rank() == 0 {
				if err := e.Send(peer, i, []float64{float64(i)}); err != nil {
					return err
				}
			}
			got, err := e.Recv(peer, i)
			if err != nil {
				return err
			}
			if got[0] != float64(i) {
				t.Errorf("rank %d trip %d: payload %v", e.Rank(), i, got)
			}
			if e.Rank() == 1 {
				if err := e.Send(peer, i, got); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := parks(topo, 1); n > 2*trips/10 {
		t.Errorf("%d of %d receives parked; a message one hand-off away must be taken from the spin", n, 2*trips)
	} else {
		t.Logf("%d of %d receives parked", n, 2*trips)
	}
	var waited, blocked int64
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindRecv && ev.Blocked > 0 {
			waited++
			blocked += ev.Blocked
		}
	}
	if waited < trips || blocked <= 0 {
		t.Errorf("only %d of %d traced receives carry blocked time (%d ns): the spin must be accounted as a wait", waited, 2*trips, blocked)
	}
	if got := reg.Counter(metrics.CommBlockedNs).Value(); got != blocked {
		t.Errorf("comm_blocked_ns = %d, the trace's receives sum to %d", got, blocked)
	}
}

// TestSpinReleasesBoundedSender: over a link of capacity 1 a streaming
// sender keeps finding the link full and the receiver keeps freeing it
// within the budget; the sends must count as blocked (they waited) and be
// released from the spin, not from the wait registry.
func TestSpinReleasesBoundedSender(t *testing.T) {
	const msgs = 2000
	topo, _ := NewTopology(2)
	if err := topo.SetLinkCapacity(1); err != nil {
		t.Fatal(err)
	}
	err := topo.Run(func(e *Endpoint) error {
		for i := 0; i < msgs; i++ {
			if e.Rank() == 0 {
				if err := e.Send(1, i, []float64{float64(i)}); err != nil {
					return err
				}
			} else if got, err := e.Recv(0, i); err != nil {
				return err
			} else if got[0] != float64(i) {
				t.Errorf("message %d: payload %v", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := topo.Stats()
	if st.BlockedSends == 0 || st.BlockedSendTime <= 0 {
		t.Errorf("no send waited on a capacity-1 link over %d messages (blocked %d, %v): the spin must still be accounted as blocked time",
			msgs, st.BlockedSends, st.BlockedSendTime)
	}
	if n := parks(topo, 1); n > 2*msgs/10 {
		t.Errorf("%d waits parked over %d messages (%d blocked sends); a dequeue inside the budget must release the spinning sender",
			n, msgs, st.BlockedSends)
	} else {
		t.Logf("%d waits parked, %d sends blocked for %v", n, st.BlockedSends, st.BlockedSendTime)
	}
}

// TestSpinSeesCancel: a receiver canceled while it spins returns the
// cancellation error without ever having parked, within 2 × spinBudget of
// the Cancel. Whether the Cancel lands inside the spin is up to the
// scheduler, so the test retries: every attempt must return the
// cancellation, and the quickest attempt that was demonstrably waiting (its
// Recv lasted) and never registered must meet the bound.
func TestSpinSeesCancel(t *testing.T) {
	cause := errors.New("external abort")
	best := time.Duration(-1)
	for try := 0; try < 200 && (best < 0 || best >= 2*spinBudget); try++ {
		topo, _ := NewTopology(2)
		type result struct {
			err    error
			waited time.Duration
		}
		entered, got := make(chan struct{}), make(chan result, 1)
		go func() {
			close(entered)
			t0 := time.Now()
			_, err := topo.Endpoint(1).Recv(0, 0)
			got <- result{err, time.Since(t0)}
		}()
		<-entered
		for t0 := time.Now(); time.Since(t0) < spinBudget/4; {
		}
		c0 := time.Now()
		topo.Cancel(cause)
		r := <-got
		latency := time.Since(c0)
		if !errors.Is(r.err, ErrCanceled) || !errors.Is(r.err, cause) {
			t.Fatalf("try %d: receiver error = %v, want cancellation wrapping the cause", try, r.err)
		}
		if r.waited >= spinBudget/8 && parks(topo, 0) == 0 && (best < 0 || latency < best) {
			best = latency
		}
	}
	if best < 0 {
		t.Fatal("no attempt canceled a receiver inside its spin")
	}
	if best >= 2*spinBudget {
		t.Errorf("a spinning receiver took %v to see Cancel, want under %v", best, 2*spinBudget)
	}
}

// TestDeadlockDiagnosedAfterSpin: ranks that really are deadlocked spin out
// their budget, register, and get the same diagnosis as before — both waits
// in the graph — no later than the budget plus the watchdog's own latency.
func TestDeadlockDiagnosedAfterSpin(t *testing.T) {
	best := time.Duration(-1)
	for try := 0; try < 5; try++ {
		topo, _ := NewTopology(2)
		t0 := time.Now()
		err := topo.Run(func(e *Endpoint) error {
			_, err := e.Recv(1-e.Rank(), 7)
			return err
		})
		took := time.Since(t0)
		var dl *DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("Run = %v, want a DeadlockError", err)
		}
		want := []WaitEntry{{Rank: 0, Op: "recv", Peer: 1, Tag: 7}, {Rank: 1, Op: "recv", Peer: 0, Tag: 7}}
		if len(dl.Waits) != 2 || dl.Waits[0] != want[0] || dl.Waits[1] != want[1] {
			t.Fatalf("wait-for graph = %v, want %v", dl.Waits, want)
		}
		if took < spinBudget {
			t.Errorf("deadlock declared after %v, before the ranks had spun out their %v", took, spinBudget)
		}
		if n := parks(topo, 1); n != 2 {
			t.Errorf("%d waits registered, want both ranks'", n)
		}
		if best < 0 || took < best {
			best = took
		}
	}
	if limit := spinBudget + 20*time.Millisecond; best > limit {
		t.Errorf("quickest diagnosis took %v, want under %v", best, limit)
	}
}

// TestSocketLinksDoNotSpin: a socket link's wake-up comes from the
// netpoller, so its receivers park at once; the choice is read off the
// topology's transport, and follows it when the transport is replaced.
func TestSocketLinksDoNotSpin(t *testing.T) {
	topo, _ := NewTopology(2)
	if !topo.spins() {
		t.Error("the in-process transport must spin before parking")
	}
	sock := newSockTopology(t, 2, TransportUnix)
	if sock.spins() {
		t.Error("a socket transport must not spin")
	}
	if err := sock.SetTransport(TransportConfig{}); err != nil {
		t.Fatal(err)
	}
	if !sock.spins() {
		t.Error("back on the in-process transport the topology must spin again")
	}
}
