package comm

import (
	"errors"
	"testing"
	"time"

	"wavefront/internal/fault"
)

// sockKinds are the two socket transports; every socket test runs under
// both, since they share the frame protocol but not the dial path.
var sockKinds = []TransportKind{TransportTCP, TransportUnix}

func newSockTopology(t *testing.T, p int, kind TransportKind) *Topology {
	t.Helper()
	topo, err := NewTopology(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.SetTransport(TransportConfig{Kind: kind}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { topo.Close() })
	return topo
}

// TestSockReconnectOnDrop severs a link's connection mid-stream and demands
// the sender redial and the receiver still observe every message exactly
// once, in order — the sequence-number dedup on the reconnect path.
func TestSockReconnectOnDrop(t *testing.T) {
	for _, kind := range sockKinds {
		t.Run(kind.String(), func(t *testing.T) {
			const msgs = 8
			topo := newSockTopology(t, 2, kind)
			st := topo.tp.(*sockTransport)
			err := topo.Run(func(e *Endpoint) error {
				if e.Rank() == 0 {
					for i := 0; i < msgs; i++ {
						if i == 3 || i == 5 {
							st.dropLinkConn(0, 1)
						}
						if err := e.Send(1, i, []float64{float64(i)}); err != nil {
							return err
						}
					}
					return nil
				}
				for i := 0; i < msgs; i++ {
					d, err := e.Recv(0, i)
					if err != nil {
						return err
					}
					if len(d) != 1 || d[0] != float64(i) {
						t.Errorf("message %d arrived as %v", i, d)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("Run across dropped connections = %v", err)
			}
			// The demux loop counts a frame delivered after enqueueing it
			// (see InFlight), so the last receive — and with it Run — can
			// finish before the counter catches up: it must settle at zero,
			// not read zero at once.
			deadline := time.Now().Add(2 * time.Second)
			for st.InFlight() != 0 && time.Now().Before(deadline) {
				time.Sleep(100 * time.Microsecond)
			}
			if n := st.InFlight(); n != 0 {
				t.Errorf("InFlight after a completed run settled at %d, want 0", n)
			}
		})
	}
}

// TestSockBoundedLinksRejected pins the mutual exclusion both ways: bounded
// links need the sender to see the receiver's queue, which only the
// in-process transport can offer.
func TestSockBoundedLinksRejected(t *testing.T) {
	topo, _ := NewTopology(2)
	if err := topo.SetLinkCapacity(2); err != nil {
		t.Fatal(err)
	}
	if err := topo.SetTransport(TransportConfig{Kind: TransportTCP}); err == nil {
		t.Error("SetTransport(tcp) succeeded on a bounded topology")
	}

	topo2 := newSockTopology(t, 2, TransportTCP)
	if err := topo2.SetLinkCapacity(1); err == nil {
		t.Error("SetLinkCapacity succeeded on a socket topology")
	}
	// Unbounding is always allowed.
	if err := topo2.SetLinkCapacity(0); err != nil {
		t.Errorf("SetLinkCapacity(0) on a socket topology = %v", err)
	}
}

// TestSockCancelUnblocks poisons a topology while one rank is parked in a
// socket-transport receive and another's frames sit in the kernel; both
// must unwind with the original cause, not hang.
func TestSockCancelUnblocks(t *testing.T) {
	for _, kind := range sockKinds {
		t.Run(kind.String(), func(t *testing.T) {
			topo := newSockTopology(t, 2, kind)
			boom := errors.New("rank body failed")
			err := topo.Run(func(e *Endpoint) error {
				if e.Rank() == 0 {
					return boom // poisons the topology; rank 1 must wake
				}
				_, err := e.Recv(0, 0)
				return err
			})
			if !errors.Is(err, boom) {
				t.Fatalf("Run = %v, want the failing rank's error", err)
			}
			if err := topo.Err(); !errors.Is(err, boom) {
				t.Errorf("Err() = %v, want the failing rank's error", err)
			}
		})
	}
}

// TestSockDeadlockDiagnosed runs a real receive-on-nothing deadlock over a
// socket transport: the in-flight re-arm must not suppress a genuine
// diagnosis once the link truly runs dry.
func TestSockDeadlockDiagnosed(t *testing.T) {
	topo := newSockTopology(t, 2, TransportTCP)
	err := topo.Run(func(e *Endpoint) error {
		if e.Rank() == 0 {
			_, err := e.Recv(1, 0)
			return err
		}
		_, err := e.Recv(0, 0)
		return err
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want a deadlock diagnosis", err)
	}
	if len(dl.Waits) != 2 {
		t.Errorf("wait-for graph has %d entries, want 2: %v", len(dl.Waits), dl)
	}
}

// TestCancelRaceKeepsRealCause pins the cancel/watchdog race
// deterministically, both orders: a DeadlockError that lands first is
// overwritten by the real cause (the watchdog legitimately fires on the
// all-blocked state a failing rank creates), a real cause that lands first
// is never overwritten, and one deadlock diagnosis never replaces another.
func TestCancelRaceKeepsRealCause(t *testing.T) {
	dl := &DeadlockError{Waits: []WaitEntry{{Rank: 0, Op: "recv", Peer: 1}}}
	real := errors.New("rank 1 body failed")

	// Deadlock first, real cause second: the real cause wins.
	topo, _ := NewTopology(2)
	topo.Cancel(dl)
	topo.cancel(1, real)
	if err := topo.Err(); !errors.Is(err, real) || errors.Is(err, ErrDeadlock) {
		t.Errorf("deadlock-then-cause: Err() = %v, want the real cause", err)
	}

	// Real cause first: the late deadlock diagnosis must not mask it.
	topo2, _ := NewTopology(2)
	topo2.cancel(1, real)
	topo2.Cancel(dl)
	if err := topo2.Err(); !errors.Is(err, real) || errors.Is(err, ErrDeadlock) {
		t.Errorf("cause-then-deadlock: Err() = %v, want the real cause", err)
	}

	// Two diagnoses: the first stands (no overwrite among equals).
	topo3, _ := NewTopology(2)
	topo3.Cancel(dl)
	topo3.Cancel(&DeadlockError{Waits: []WaitEntry{{Rank: 1, Op: "send", Peer: 0}}})
	var got *DeadlockError
	if err := topo3.Err(); !errors.As(err, &got) || got != dl {
		t.Errorf("deadlock-then-deadlock: Err() = %v, want the first diagnosis", err)
	}

	// A real cause also never loses to a later real cause.
	other := errors.New("a later failure")
	topo4, _ := NewTopology(2)
	topo4.cancel(0, real)
	topo4.cancel(1, other)
	if err := topo4.Err(); !errors.Is(err, real) {
		t.Errorf("cause-then-cause: Err() = %v, want the first cause", err)
	}
}

// TestStallBelowWatchdogThreshold: a transient injected delay parks a rank
// without registering a wait, so even with every other rank blocked the
// watchdog must hold fire and the run must complete untouched.
func TestStallBelowWatchdogThreshold(t *testing.T) {
	topo, _ := NewTopology(3)
	topo.SetFaults(fault.MustNew(fault.Plan{Rules: []fault.Rule{
		{Op: fault.OpSend, Rank: 0, Peer: 1, Tag: fault.Any, Action: fault.ActDelay, Delay: 30e6}, // 30ms
	}}))
	// During the delay rank 1 blocks on recv(0) and rank 2 on recv(1):
	// blocked == 2 while live == 3, one short of the watchdog's threshold.
	err := topo.Run(func(e *Endpoint) error {
		switch e.Rank() {
		case 0:
			return e.Send(1, 0, []float64{42})
		case 1:
			d, err := e.Recv(0, 0)
			if err != nil {
				return err
			}
			return e.Send(2, 0, d)
		default:
			d, err := e.Recv(1, 0)
			if err != nil {
				return err
			}
			if d[0] != 42 {
				t.Errorf("relayed payload = %v, want 42", d)
			}
			return nil
		}
	})
	if err != nil {
		t.Fatalf("transient stall tripped the watchdog: %v", err)
	}
}

// TestStallAboveWatchdogThreshold: a permanent injected stall with peers
// that first make real progress, then block. The watchdog must stay silent
// through the progress phase, count a finished rank out via rankDone, and
// finally diagnose with the full structured wait-for graph — the stalled
// rank included, with its distinct operation label.
func TestStallAboveWatchdogThreshold(t *testing.T) {
	const rounds = 25
	topo, _ := NewTopology(3)
	inj := fault.MustNew(fault.Plan{Rules: []fault.Rule{
		{Op: fault.OpSend, Rank: 0, Peer: 1, Tag: 99, Action: fault.ActStall},
	}})
	topo.SetFaults(inj)
	err := topo.Run(func(e *Endpoint) error {
		switch e.Rank() {
		case 0:
			return e.Send(1, 99, []float64{1}) // parks in the injected stall
		case 1:
			// Real progress while rank 0 is stalled: the all-blocked
			// condition must not trigger during these exchanges.
			for i := 0; i < rounds; i++ {
				if err := e.Send(2, i, []float64{float64(i)}); err != nil {
					return err
				}
				if _, err := e.Recv(2, i); err != nil {
					return err
				}
			}
			_, err := e.Recv(0, 99) // never satisfied
			return err
		default:
			for i := 0; i < rounds; i++ {
				d, err := e.Recv(1, i)
				if err != nil {
					return err
				}
				if err := e.Send(1, i, d); err != nil {
					return err
				}
			}
			return nil // retires via rankDone; live drops to 2
		}
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want a deadlock diagnosis", err)
	}
	if inj.Fired() != 1 {
		t.Errorf("injector fired %d times, want 1", inj.Fired())
	}
	if len(dl.Waits) != 2 {
		t.Fatalf("wait-for graph has %d entries, want 2 (stalled rank 0, starved rank 1): %v", len(dl.Waits), dl)
	}
	byRank := map[int]WaitEntry{}
	for _, w := range dl.Waits {
		byRank[w.Rank] = w
	}
	if w, ok := byRank[0]; !ok || w.Op != "stall(send)" || w.Peer != 1 || w.Tag != 99 {
		t.Errorf("stalled entry = %+v, want rank 0 stall(send) towards rank 1 tag 99", byRank[0])
	}
	if w, ok := byRank[1]; !ok || w.Op != "recv" || w.Peer != 0 || w.Tag != 99 || w.QueueLen != 0 {
		t.Errorf("starved entry = %+v, want rank 1 recv from rank 0 tag 99 on an empty queue", byRank[1])
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Error("diagnosis does not match ErrDeadlock")
	}
}
