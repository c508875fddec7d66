package comm

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"wavefront/internal/fault"
	"wavefront/internal/metrics"
	"wavefront/internal/trace"
)

// TestRunErrorUnblocksPeers is the regression test for Run hanging when one
// rank fails while its peers block in Recv: before cooperative
// cancellation, this test deadlocked.
func TestRunErrorUnblocksPeers(t *testing.T) {
	topo, _ := NewTopology(3)
	err := topo.Run(func(e *Endpoint) error {
		if e.Rank() == 0 {
			return errTest
		}
		// Ranks 1 and 2 wait on a message rank 0 will never send.
		_, err := e.Recv(0, 0)
		return err
	})
	if err == nil {
		t.Fatal("Run must surface the failing rank's error")
	}
	if !errors.Is(err, errTest) {
		t.Errorf("error must wrap the rank's cause, got %v", err)
	}
	if !strings.Contains(err.Error(), "rank 0") {
		t.Errorf("error must name the failing rank, got %v", err)
	}
}

func TestCancelUnblocksReceiver(t *testing.T) {
	topo, _ := NewTopology(2)
	cause := errors.New("external abort")
	got := make(chan error, 1)
	go func() {
		_, err := topo.Endpoint(1).Recv(0, 0)
		got <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the receiver block
	topo.Cancel(cause)
	select {
	case err := <-got:
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, cause) {
			t.Errorf("receiver error = %v, want cancellation wrapping the cause", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Cancel did not unblock the receiver")
	}
}

func TestCancelUnblocksBoundedSender(t *testing.T) {
	topo, _ := NewTopology(2)
	if err := topo.SetLinkCapacity(1); err != nil {
		t.Fatal(err)
	}
	e := topo.Endpoint(0)
	if err := e.Send(1, 0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		got <- e.Send(1, 1, []float64{2}) // link full: blocks
	}()
	time.Sleep(5 * time.Millisecond)
	topo.Cancel(nil)
	select {
	case err := <-got:
		if !errors.Is(err, ErrCanceled) {
			t.Errorf("blocked sender error = %v, want ErrCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Cancel did not unblock the sender")
	}
}

func TestDoubleCancelIdempotent(t *testing.T) {
	topo, _ := NewTopology(2)
	first := errors.New("first cause")
	topo.Cancel(first)
	topo.Cancel(errors.New("second cause"))
	if !errors.Is(topo.Err(), first) {
		t.Errorf("Err() = %v, want the first cause to win", topo.Err())
	}
	// Operations fail fast after cancellation.
	if err := topo.Endpoint(0).Send(1, 0, nil); !errors.Is(err, ErrCanceled) {
		t.Errorf("post-cancel send = %v, want ErrCanceled", err)
	}
	if _, err := topo.Endpoint(1).Recv(0, 0); !errors.Is(err, ErrCanceled) {
		t.Errorf("post-cancel recv = %v, want ErrCanceled", err)
	}
}

// TestDeadlockDiagnosisRecv: two ranks wait on each other with no message
// in flight; the watchdog must report the wait-for graph, not hang.
func TestDeadlockDiagnosisRecv(t *testing.T) {
	topo, _ := NewTopology(2)
	err := topo.Run(func(e *Endpoint) error {
		_, err := e.Recv(1-e.Rank(), 7)
		return err
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want a deadlock diagnosis", err)
	}
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("error %v does not carry a *DeadlockError", err)
	}
	if len(dl.Waits) != 2 {
		t.Fatalf("wait-for graph has %d entries, want 2: %v", len(dl.Waits), dl)
	}
	for _, w := range dl.Waits {
		if w.Op != "recv" || w.Peer != 1-w.Rank || w.Tag != 7 || w.QueueLen != 0 {
			t.Errorf("wait entry %+v, want recv from the other rank at tag 7 on an empty queue", w)
		}
	}
}

// TestDeadlockDiagnosisBackpressure: a saturated bounded link must appear
// in the diagnosis as a blocked send with the queue depth.
func TestDeadlockDiagnosisBackpressure(t *testing.T) {
	topo, _ := NewTopology(3)
	if err := topo.SetLinkCapacity(1); err != nil {
		t.Fatal(err)
	}
	err := topo.Run(func(e *Endpoint) error {
		switch e.Rank() {
		case 0:
			if err := e.Send(1, 0, []float64{1}); err != nil {
				return err
			}
			return e.Send(1, 1, []float64{2}) // link 0→1 full: blocks
		case 1:
			_, err := e.Recv(2, 0) // rank 2 never sends
			return err
		default:
			_, err := e.Recv(1, 0) // rank 1 never sends
			return err
		}
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want a deadlock diagnosis", err)
	}
	if len(dl.Waits) != 3 {
		t.Fatalf("wait-for graph has %d entries, want 3: %v", len(dl.Waits), dl)
	}
	var sends int
	for _, w := range dl.Waits {
		if w.Op == "send" {
			sends++
			if w.Rank != 0 || w.Peer != 1 || w.QueueLen != 1 {
				t.Errorf("blocked-send entry %+v, want rank 0 → 1 at queue depth 1", w)
			}
		}
	}
	if sends != 1 {
		t.Errorf("%d blocked-send entries, want 1: %v", sends, dl)
	}
}

func TestBackpressureDeliversInOrder(t *testing.T) {
	const n = 64
	topo, _ := NewTopology(2)
	if err := topo.SetLinkCapacity(2); err != nil {
		t.Fatal(err)
	}
	err := topo.Run(func(e *Endpoint) error {
		if e.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := e.Send(1, i, []float64{float64(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			if i%8 == 0 {
				time.Sleep(time.Millisecond) // keep the sender bumping the cap
			}
			d, err := e.Recv(0, i)
			if err != nil {
				return err
			}
			if d[0] != float64(i) {
				t.Errorf("message %d payload = %v", i, d)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := topo.Stats()
	if s.Messages != n {
		t.Errorf("messages = %d, want %d", s.Messages, n)
	}
	if s.BlockedSends == 0 || s.BlockedSendTime == 0 {
		t.Errorf("blocked-send accounting missing: %+v", s)
	}
}

func TestTagMismatchDiagnostics(t *testing.T) {
	topo, _ := NewTopology(2)
	if err := topo.Endpoint(0).Send(1, 5, nil); err != nil {
		t.Fatal(err)
	}
	if err := topo.Endpoint(0).Send(1, 6, nil); err != nil {
		t.Fatal(err)
	}
	_, err := topo.Endpoint(1).Recv(0, 6)
	if err == nil {
		t.Fatal("tag mismatch must be reported")
	}
	for _, want := range []string{
		"rank 1",        // receiving endpoint
		"rank 0",        // sending endpoint
		"tag 6",         // expected
		"tag 5",         // actual head-of-line
		"queue depth 2", // both unconsumed messages
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("tag-mismatch error %q lacks %q", err, want)
		}
	}
}

func TestNegativeLinkCapacityRejected(t *testing.T) {
	topo, _ := NewTopology(2)
	if err := topo.SetLinkCapacity(-1); err == nil {
		t.Error("negative capacity must be rejected")
	}
	if err := topo.SetLinkCapacity(0); err != nil {
		t.Errorf("zero capacity (unbounded) must be accepted: %v", err)
	}
}

// TestInjectDropDiagnosed: dropping every boundary message starves the
// receiver; the run must end in a deadlock diagnosis, not a hang.
func TestInjectDropDiagnosed(t *testing.T) {
	topo, _ := NewTopology(2)
	topo.SetFaults(fault.MustNew(fault.Plan{Rules: []fault.Rule{
		{Op: fault.OpSend, Rank: 0, Peer: 1, Tag: fault.Any, Times: -1, Action: fault.ActDrop},
	}}))
	err := topo.Run(func(e *Endpoint) error {
		if e.Rank() == 0 {
			return e.Send(1, 0, []float64{1})
		}
		_, err := e.Recv(0, 0)
		return err
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want a deadlock diagnosis for the starved receiver", err)
	}
}

func TestInjectCrashPropagates(t *testing.T) {
	topo, _ := NewTopology(2)
	topo.SetFaults(fault.MustNew(fault.Plan{Rules: []fault.Rule{
		{Op: fault.OpSend, Rank: 0, Peer: 1, Tag: fault.Any, Action: fault.ActCrash},
	}}))
	err := topo.Run(func(e *Endpoint) error {
		if e.Rank() == 0 {
			return e.Send(1, 0, []float64{1})
		}
		_, err := e.Recv(0, 0)
		return err
	})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Run = %v, want the injected crash", err)
	}
	var ce *fault.CrashError
	if !errors.As(err, &ce) || ce.Rank != 0 {
		t.Errorf("crash identity lost: %v", err)
	}
}

func TestInjectStallDiagnosed(t *testing.T) {
	topo, _ := NewTopology(2)
	topo.SetFaults(fault.MustNew(fault.Plan{Rules: []fault.Rule{
		{Op: fault.OpSend, Rank: 0, Peer: 1, Tag: fault.Any, Action: fault.ActStall},
	}}))
	err := topo.Run(func(e *Endpoint) error {
		if e.Rank() == 0 {
			return e.Send(1, 0, []float64{1})
		}
		_, err := e.Recv(0, 0)
		return err
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want a deadlock diagnosis including the stalled rank", err)
	}
	var stalls int
	for _, w := range dl.Waits {
		if strings.HasPrefix(w.Op, "stall") {
			stalls++
			if w.Rank != 0 || w.Peer != 1 {
				t.Errorf("stall entry %+v, want rank 0 stalled towards rank 1", w)
			}
		}
	}
	if stalls != 1 {
		t.Errorf("%d stall entries in %v, want 1", stalls, dl)
	}
}

func TestInjectDuplicateAndCorrupt(t *testing.T) {
	topo, _ := NewTopology(2)
	topo.SetFaults(fault.MustNew(fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Op: fault.OpSend, Rank: 0, Peer: 1, Tag: 0, Action: fault.ActDuplicate},
		{Op: fault.OpSend, Rank: 0, Peer: 1, Tag: 1, Action: fault.ActCorrupt},
	}}))
	err := topo.Run(func(e *Endpoint) error {
		if e.Rank() == 0 {
			if err := e.Send(1, 0, []float64{3}); err != nil {
				return err
			}
			return e.Send(1, 1, []float64{4})
		}
		d1, err := e.Recv(0, 0)
		if err != nil {
			return err
		}
		d2, err := e.Recv(0, 0) // the duplicate carries the same tag
		if err != nil {
			return err
		}
		if d1[0] != 3 || d2[0] != 3 {
			t.Errorf("duplicate payloads = %v, %v, want 3, 3", d1, d2)
		}
		d3, err := e.Recv(0, 1)
		if err != nil {
			return err
		}
		if d3[0] == 4 {
			t.Error("corrupted payload arrived unperturbed")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInjectDelay(t *testing.T) {
	const d = 20 * time.Millisecond
	topo, _ := NewTopology(2)
	topo.SetFaults(fault.MustNew(fault.Plan{Rules: []fault.Rule{
		{Op: fault.OpSend, Rank: 0, Peer: 1, Tag: fault.Any, Action: fault.ActDelay, Delay: d},
	}}))
	start := time.Now()
	err := topo.Run(func(e *Endpoint) error {
		if e.Rank() == 0 {
			return e.Send(1, 0, []float64{1})
		}
		_, err := e.Recv(0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < d {
		t.Errorf("run took %v, want at least the injected %v", elapsed, d)
	}
}

// TestFaultAndCancelTraced: injected faults and canceled operations must
// appear in the trace, and backpressure waits must record blocked-send
// events.
func TestFaultAndCancelTraced(t *testing.T) {
	topo, _ := NewTopology(2)
	tr := trace.New(2, 0)
	obs, _ := metrics.Observe(tr, nil, 2)
	topo.SetObserver(obs)
	topo.SetFaults(fault.MustNew(fault.Plan{Rules: []fault.Rule{
		{Op: fault.OpSend, Rank: 0, Peer: 1, Tag: fault.Any, Times: -1, Action: fault.ActDrop},
	}}))
	err := topo.Run(func(e *Endpoint) error {
		if e.Rank() == 0 {
			return e.Send(1, 0, []float64{1})
		}
		_, err := e.Recv(0, 0)
		return err
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run = %v, want deadlock", err)
	}
	var faults, cancels int
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case trace.KindFault:
			faults++
			if ev.Rank != 0 || ev.Peer != 1 || ev.Seq != int(fault.ActDrop) {
				t.Errorf("fault event %+v, want rank 0 dropping to rank 1", ev)
			}
		case trace.KindCancel:
			cancels++
			if ev.Rank != 1 || ev.Peer != 0 {
				t.Errorf("cancel event %+v, want rank 1's aborted recv from 0", ev)
			}
		}
	}
	if faults != 1 || cancels != 1 {
		t.Errorf("traced %d fault and %d cancel events, want 1 and 1", faults, cancels)
	}
}

func TestBlockedSendTraced(t *testing.T) {
	topo, _ := NewTopology(2)
	tr := trace.New(2, 0)
	obs, _ := metrics.Observe(tr, nil, 2)
	topo.SetObserver(obs)
	if err := topo.SetLinkCapacity(1); err != nil {
		t.Fatal(err)
	}
	err := topo.Run(func(e *Endpoint) error {
		if e.Rank() == 0 {
			for i := 0; i < 4; i++ {
				if err := e.Send(1, i, []float64{float64(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		time.Sleep(5 * time.Millisecond) // force the sender against the cap
		for i := 0; i < 4; i++ {
			if _, err := e.Recv(0, i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var blockedEvents int
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindBlockedSend {
			blockedEvents++
			if ev.Rank != 0 || ev.Peer != 1 || ev.Blocked <= 0 {
				t.Errorf("blocked-send event %+v, want rank 0 waiting on rank 1", ev)
			}
		}
	}
	if blockedEvents == 0 {
		t.Error("no blocked-send events traced under backpressure")
	}
}

// TestNoFalseDeadlock hammers a ping-pong under a bounded link: ranks are
// frequently blocked, but someone can always make progress, so the watchdog
// must stay quiet.
func TestNoFalseDeadlock(t *testing.T) {
	const rounds = 200
	topo, _ := NewTopology(2)
	if err := topo.SetLinkCapacity(1); err != nil {
		t.Fatal(err)
	}
	err := topo.Run(func(e *Endpoint) error {
		peer := 1 - e.Rank()
		for i := 0; i < rounds; i++ {
			if e.Rank() == 0 {
				if err := e.Send(peer, i, []float64{float64(i)}); err != nil {
					return err
				}
				if _, err := e.Recv(peer, i); err != nil {
					return err
				}
			} else {
				if _, err := e.Recv(peer, i); err != nil {
					return err
				}
				if err := e.Send(peer, i, []float64{float64(i)}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("healthy ping-pong diagnosed as faulty: %v", err)
	}
}

// TestConcurrentRunRejected: a topology runs one SPMD section at a time.
func TestConcurrentRunRejected(t *testing.T) {
	topo, _ := NewTopology(2)
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		topo.Run(func(e *Endpoint) error {
			<-release
			return nil
		})
	}()
	time.Sleep(5 * time.Millisecond)
	if err := topo.Run(func(e *Endpoint) error { return nil }); err == nil {
		t.Error("overlapping Run must be rejected")
	}
	close(release)
	wg.Wait()
}
