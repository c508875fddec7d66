package trace

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestNilRecorderIsSafeAndFree(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if r.Now() != 0 || r.Procs() != 0 || r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder leaks state")
	}
	r.Record(Ev(KindCompute, 0, 1, 2)) // must not panic
	r.Reset()
	if r.Events() != nil || r.RankEvents(0) != nil || r.Summarize() != nil {
		t.Fatal("nil recorder returned non-nil data")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		r.Record(Ev(KindCompute, 0, r.Now(), r.Now()))
	}); allocs != 0 {
		t.Fatalf("nil-recorder Record allocates %v times per call", allocs)
	}
}

func TestRecordDoesNotAllocate(t *testing.T) {
	r := New(2, 128)
	ev := Ev(KindSend, 1, 10, 20)
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Record(ev)
	}); allocs != 0 {
		t.Fatalf("Record allocates %v times per call; the ring must be preallocated", allocs)
	}
}

func TestRingWrapDropsOldest(t *testing.T) {
	r := New(1, 4)
	for i := 0; i < 7; i++ {
		r.Record(Ev(KindCompute, 0, int64(i), int64(i+1)))
	}
	if got := r.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	events := r.RankEvents(0)
	if len(events) != 4 {
		t.Fatalf("retained %d events, want 4", len(events))
	}
	for i, ev := range events {
		if want := int64(3 + i); ev.Start != want {
			t.Fatalf("event %d has start %d, want %d (oldest must be dropped, order kept)", i, ev.Start, want)
		}
	}
}

func TestEvClearsIdentityFields(t *testing.T) {
	ev := Ev(KindBarrier, 2, 5, 9)
	if ev.Peer != -1 || ev.Seq != -1 || ev.Wave != -1 || ev.Tile != -1 || ev.Need != -1 {
		t.Fatalf("Ev left identity fields set: %+v", ev)
	}
	if ev.Rank != 2 || ev.Start != 5 || ev.End != 9 || ev.Kind != KindBarrier {
		t.Fatalf("Ev mangled its arguments: %+v", ev)
	}
}

// TestSummaryMetrics checks the busy/wait/comm accounting and the
// fill/drain/overlap math on a hand-built two-rank pipeline: rank 0
// computes [0,100] and [100,200]; rank 1 waits, then computes [120,220]
// and [220,320].
func TestSummaryMetrics(t *testing.T) {
	r := New(2, 64)
	us := func(v int) int64 { return int64(v) * 1000 }

	r.Record(Ev(KindCompute, 0, us(0), us(100)))
	send := Ev(KindSend, 0, us(100), us(102))
	send.Peer, send.Tag, send.Elems = 1, 0, 8
	r.Record(send)
	r.Record(Ev(KindCompute, 0, us(102), us(200)))

	recv := Ev(KindRecv, 1, us(0), us(110))
	recv.Peer, recv.Tag, recv.Elems, recv.Blocked = 0, 0, 8, us(105)
	r.Record(recv)
	r.Record(Ev(KindCompute, 1, us(120), us(220)))
	r.Record(Ev(KindCompute, 1, us(220), us(320)))

	s := r.Summarize()
	if s.Procs != 2 {
		t.Fatalf("procs = %d", s.Procs)
	}
	if got, want := s.Ranks[0].Busy, 198*time.Microsecond; got != want {
		t.Errorf("rank 0 busy = %v, want %v", got, want)
	}
	if got, want := s.Ranks[0].Comm, 2*time.Microsecond; got != want {
		t.Errorf("rank 0 comm = %v, want %v", got, want)
	}
	if got, want := s.Ranks[1].Wait, 105*time.Microsecond; got != want {
		t.Errorf("rank 1 wait = %v, want %v", got, want)
	}
	if got, want := s.Ranks[1].Comm, 5*time.Microsecond; got != want {
		t.Errorf("rank 1 comm = %v, want %v (recv span minus blocked)", got, want)
	}
	// Fill: rank 0 starts at 0, rank 1 at 120.
	if got, want := s.Fill, 120*time.Microsecond; got != want {
		t.Errorf("fill = %v, want %v", got, want)
	}
	// Drain: rank 0 ends at 200, rank 1 at 320.
	if got, want := s.Drain, 120*time.Microsecond; got != want {
		t.Errorf("drain = %v, want %v", got, want)
	}
	if got, want := s.Wall, 320*time.Microsecond; got != want {
		t.Errorf("wall = %v, want %v", got, want)
	}
	// Compute-active time: [0,100] ∪ [102,320] = 318us; both ranks active
	// in [120,200] = 80us.
	if got, want := s.Overlap, 80.0/318.0; got != want {
		t.Errorf("overlap = %v, want %v", got, want)
	}
	if s.String() == "" {
		t.Error("summary renders empty")
	}
}

func TestChromeExportRoundTrips(t *testing.T) {
	r := New(2, 64)
	c := Ev(KindCompute, 0, 1000, 2000)
	c.Tile, c.Need, c.Peer, c.Wave, c.Elems = 3, 2, 1, 0, 64
	r.Record(c)
	s := Ev(KindSend, 0, 2000, 2100)
	s.Peer, s.Tag, s.Elems = 1, 7, 16
	r.Record(s)

	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Pid  *int           `json:"pid"`
			Tid  *int           `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	// 2 thread_name metadata events + 2 spans.
	if len(decoded.TraceEvents) != 4 {
		t.Fatalf("decoded %d events, want 4", len(decoded.TraceEvents))
	}
	var spans, metas int
	for _, ev := range decoded.TraceEvents {
		if ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event %q missing pid/tid", ev.Name)
		}
		switch ev.Ph {
		case "X":
			spans++
		case "M":
			metas++
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if spans != 2 || metas != 2 {
		t.Fatalf("got %d spans and %d metadata events, want 2 and 2", spans, metas)
	}
	var nilRec *Recorder
	if err := nilRec.WriteChrome(&buf); err == nil {
		t.Fatal("exporting a nil recorder must error")
	}
}

// TestChromeExchangeNamesItsPeers: an exchange span carries the neighbours
// that took part, so a refresh that moved rows across one slab boundary
// only (peer == peer_hi) can be told from a two-sided one on the timeline.
func TestChromeExchangeNamesItsPeers(t *testing.T) {
	r := New(3, 8)
	one := Ev(KindExchange, 0, 100, 200)
	one.Peer, one.Seq, one.Elems = 1, 1, 510
	r.Record(one)
	two := Ev(KindExchange, 1, 100, 300)
	two.Peer, two.Seq, two.Elems = 0, 2, 2040
	r.Record(two)

	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	want := map[int][3]float64{0: {1, 1, 510}, 1: {0, 2, 2040}}
	seen := 0
	for _, ev := range decoded.TraceEvents {
		if ev.Name != "exchange" {
			continue
		}
		seen++
		w := want[ev.Tid]
		if ev.Args["peer"] != w[0] || ev.Args["peer_hi"] != w[1] || ev.Args["elems"] != w[2] {
			t.Errorf("rank %d exchange args %v, want peer %v peer_hi %v elems %v", ev.Tid, ev.Args, w[0], w[1], w[2])
		}
	}
	if seen != 2 {
		t.Fatalf("exported %d exchange spans, want 2", seen)
	}
}
