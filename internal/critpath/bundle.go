package critpath

// The post-mortem flight recorder. A *Postmortem armed on a pipeline or
// session watches every run end; structured failures (deadlock, injected
// fault, cancellation, checkpoint checksum error, recovery restart)
// trigger a capture automatically, and clean runs stash their inputs so
// CaptureNow can bundle them on demand. A capture serializes one
// versioned JSON artifact — run config, the recent trace tail from every
// ring, a metrics snapshot, the wait-for graph, checkpoint metadata, and
// the critical-path report — seals it with a byte-wise 64-bit FNV-1a (ckpt
// snapshots use a word-wise hash of their own), and writes it atomically
// (temp file + rename) like
// ckpt.FileStore, so a half-written bundle is never observable.
//
// A nil *Postmortem is the disabled recorder: every method is safe and
// does nothing, the same contract as a nil trace.Recorder.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"wavefront/internal/ckpt"
	"wavefront/internal/comm"
	"wavefront/internal/fault"
	"wavefront/internal/metrics"
	"wavefront/internal/trace"
)

// BundleVersion stamps every bundle; decoders reject versions they do not
// know.
const BundleVersion = 1

// DefaultTailEvents is how many trailing events per ring a bundle keeps.
const DefaultTailEvents = 512

// FlightCapacity is the per-ring capacity of the internal trace ring an
// armed Postmortem creates when the run has no user trace: deep enough to
// hold the lead-up to a failure, shallow enough to arm on every run.
const FlightCapacity = 4096

// ErrBundleChecksum reports a bundle whose seal does not match its
// contents.
var ErrBundleChecksum = errors.New("critpath: bundle checksum mismatch")

// RunConfig is the run's shape, embedded so a bundle is reproducible
// without the caller's code.
type RunConfig struct {
	Procs           int    `json:"procs"`
	Block           int    `json:"block"`
	WavefrontDim    int    `json:"wavefront_dim"`
	TileDim         int    `json:"tile_dim"`
	Scheduler       string `json:"scheduler,omitempty"`
	Workers         int    `json:"workers,omitempty"`
	Transport       string `json:"transport,omitempty"`
	LinkCapacity    int    `json:"link_capacity,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`
}

// WaitEdge is one node of a deadlock diagnosis' wait-for graph.
type WaitEdge struct {
	Rank     int    `json:"rank"`
	Op       string `json:"op"`
	Peer     int    `json:"peer"`
	Tag      int    `json:"tag"`
	QueueLen int    `json:"queue_len"`
}

// CkptMeta is one rank's latest checkpoint, metadata only (the snapshot
// payload stays in its store).
type CkptMeta struct {
	Rank     int    `json:"rank"`
	Wave     int    `json:"wave"`
	Seq      int64  `json:"seq"`
	Fields   int    `json:"fields"`
	Elems    int    `json:"elems"`
	Checksum uint64 `json:"checksum"`
	Err      string `json:"err,omitempty"`
}

// Bundle is the post-mortem artifact: everything needed to diagnose a run
// after the fact, in one self-verifying JSON document.
type Bundle struct {
	Version          int       `json:"version"`
	Seq              int       `json:"seq"`
	Class            string    `json:"class"`
	Reason           string    `json:"reason,omitempty"`
	CapturedAtUnixNs int64     `json:"captured_at_unix_ns"`
	Config           RunConfig `json:"config"`

	Restarts        int   `json:"restarts"`
	FaultsFired     int64 `json:"faults_fired"`
	PendingMessages int   `json:"pending_messages"`

	WaitFor      []WaitEdge        `json:"wait_for,omitempty"`
	TraceTail    [][]trace.Event   `json:"trace_tail,omitempty"`
	TraceDropped int64             `json:"trace_dropped"`
	Metrics      *metrics.Snapshot `json:"metrics,omitempty"`
	Ckpt         []CkptMeta        `json:"ckpt,omitempty"`
	CritPath     *Report           `json:"critpath,omitempty"`

	// Checksum is FNV-1a over the bundle's JSON encoding with this field
	// zeroed; DecodeBundle re-derives and verifies it.
	Checksum uint64 `json:"checksum"`
}

// CaptureInput is everything the runtime hands the flight recorder at the
// end of a run. All references must be quiescent (the runtime calls
// RunEnded only after every rank goroutine has joined).
type CaptureInput struct {
	// Err is the run's outcome (nil for a clean run).
	Err error
	// Config describes the run.
	Config RunConfig
	// Trace is the run's recorder: the user's, or the internal flight ring
	// the runtime armed when no user trace was set.
	Trace *trace.Recorder
	// Metrics is the run's registry (may be nil).
	Metrics *metrics.Registry
	// CkptStore holds per-rank snapshots when checkpointing was on.
	CkptStore ckpt.Store
	// Procs and Workers map trace rings back to ranks.
	Procs, Workers int
	// PendingMessages counts undelivered boundary messages at run end.
	PendingMessages int
	// Restarts counts checkpoint-recovery restarts during the run.
	Restarts int
	// FaultsFired counts injected faults that fired.
	FaultsFired int64
}

// triggered reports whether the run end demands an automatic capture.
func triggered(in CaptureInput) bool {
	return in.Err != nil || in.Restarts > 0 || in.FaultsFired > 0
}

// classify names the failure family for the bundle and its filename.
func classify(in CaptureInput) string {
	if in.Err == nil {
		switch {
		case in.Restarts > 0:
			return "recovery-restart"
		case in.FaultsFired > 0:
			return "fault"
		}
		return "manual"
	}
	var dl *comm.DeadlockError
	switch {
	case errors.As(in.Err, &dl):
		return "deadlock"
	case errors.Is(in.Err, ckpt.ErrChecksum):
		return "ckpt-checksum"
	case errors.Is(in.Err, fault.ErrInjected):
		return "fault"
	case errors.Is(in.Err, comm.ErrCanceled):
		return "cancel"
	}
	return "error"
}

// Postmortem is the armed flight recorder. Arm it by setting it on a
// pipeline Config or SessionConfig; dir == "" keeps bundles in memory
// only (Last still serves them).
type Postmortem struct {
	dir  string
	tail int

	mu       sync.Mutex
	seq      int
	last     *Bundle
	lastPath string
	lastJSON []byte
	stash    *CaptureInput
}

// NewPostmortem creates a flight recorder writing bundles into dir
// (created on first capture; "" = in-memory only).
func NewPostmortem(dir string) *Postmortem {
	return &Postmortem{dir: dir, tail: DefaultTailEvents}
}

// Enabled reports whether the recorder is armed (false for nil).
func (p *Postmortem) Enabled() bool { return p != nil }

// SetTailEvents overrides how many trailing events per ring a bundle
// keeps (non-positive restores the default).
func (p *Postmortem) SetTailEvents(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n <= 0 {
		n = DefaultTailEvents
	}
	p.tail = n
}

// RunEnded is the runtime's hook, called once per run after every rank
// goroutine has joined. Structured failures capture a bundle immediately;
// clean runs stash the inputs for a later CaptureNow. It returns the
// bundle and file path when a capture happened (best-effort: the runtime
// ignores the error, callers who care use Last or CaptureNow).
func (p *Postmortem) RunEnded(in CaptureInput) (*Bundle, string, error) {
	if p == nil {
		return nil, "", nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if triggered(in) {
		p.stash = nil
		return p.captureLocked(in, "")
	}
	stashed := in
	p.stash = &stashed
	return nil, "", nil
}

// CaptureNow bundles the most recent clean run on demand (reason is
// recorded verbatim). It fails when no run has ended since the last
// capture. Must not be called while a run sharing the trace recorder is
// in flight.
func (p *Postmortem) CaptureNow(reason string) (*Bundle, string, error) {
	if p == nil {
		return nil, "", errors.New("critpath: flight recorder not armed")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stash == nil {
		return nil, "", errors.New("critpath: no completed run to capture")
	}
	in := *p.stash
	p.stash = nil
	return p.captureLocked(in, reason)
}

// Last returns the most recent bundle and the file it was written to
// ("" when the recorder is memory-only or nothing was captured).
func (p *Postmortem) Last() (*Bundle, string) {
	if p == nil {
		return nil, ""
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last, p.lastPath
}

func (p *Postmortem) captureLocked(in CaptureInput, reason string) (*Bundle, string, error) {
	b := &Bundle{
		Version:          BundleVersion,
		Seq:              p.seq + 1,
		Class:            classify(in),
		Reason:           reason,
		CapturedAtUnixNs: time.Now().UnixNano(),
		Config:           in.Config,
		Restarts:         in.Restarts,
		FaultsFired:      in.FaultsFired,
		PendingMessages:  in.PendingMessages,
	}
	if b.Reason == "" && in.Err != nil {
		b.Reason = in.Err.Error()
	}
	var dl *comm.DeadlockError
	if errors.As(in.Err, &dl) {
		for _, w := range dl.Waits {
			b.WaitFor = append(b.WaitFor, WaitEdge{
				Rank: w.Rank, Op: w.Op, Peer: w.Peer, Tag: w.Tag, QueueLen: w.QueueLen,
			})
		}
	}
	if tr := in.Trace; tr.Enabled() {
		b.TraceDropped = tr.Dropped()
		for ring := 0; ring < tr.Procs(); ring++ {
			evs := tr.RankEvents(ring)
			if len(evs) > p.tail {
				evs = evs[len(evs)-p.tail:]
			}
			b.TraceTail = append(b.TraceTail, evs)
		}
		rep, _ := Analyze(tr.Events(), Options{
			Procs: in.Procs, Workers: in.Workers,
			Dropped: tr.Dropped(), Tolerant: true, Metrics: in.Metrics,
		})
		b.CritPath = rep
	}
	if in.Metrics.Enabled() {
		b.Metrics = sanitizeSnapshot(in.Metrics.Snapshot())
	}
	if in.CkptStore != nil {
		for rank := 0; rank < in.Procs; rank++ {
			s, err := in.CkptStore.Latest(rank)
			switch {
			case err != nil:
				b.Ckpt = append(b.Ckpt, CkptMeta{Rank: rank, Err: err.Error()})
			case s != nil:
				elems := 0
				for _, f := range s.Fields {
					elems += len(f.Data)
				}
				b.Ckpt = append(b.Ckpt, CkptMeta{
					Rank: s.Rank, Wave: s.Wave, Seq: s.Seq,
					Fields: len(s.Fields), Elems: elems, Checksum: s.Checksum,
				})
			}
		}
	}

	data, err := EncodeBundle(b)
	if err != nil {
		return nil, "", fmt.Errorf("critpath: encode bundle: %w", err)
	}
	p.seq = b.Seq
	path := ""
	if p.dir != "" {
		if err := os.MkdirAll(p.dir, 0o755); err != nil {
			return b, "", fmt.Errorf("critpath: bundle dir: %w", err)
		}
		name := fmt.Sprintf("postmortem-%03d-%s.json", b.Seq, b.Class)
		path = filepath.Join(p.dir, name)
		if err := writeAtomic(path, data); err != nil {
			return b, "", err
		}
	}
	p.last, p.lastPath, p.lastJSON = b, path, data
	return b, path, nil
}

// writeAtomic writes data to path via a temp file in the same directory
// and a rename, the ckpt.FileStore discipline: readers see the old bundle
// or the new one, never a prefix.
func writeAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("critpath: write bundle: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("critpath: write bundle: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("critpath: write bundle: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("critpath: write bundle: %w", err)
	}
	return nil
}

// EncodeBundle seals b (stamping Checksum over the encoding with the
// field zeroed) and returns its canonical JSON.
func EncodeBundle(b *Bundle) ([]byte, error) {
	saved := b.Checksum
	b.Checksum = 0
	unsealed, err := json.Marshal(b)
	if err != nil {
		b.Checksum = saved
		return nil, err
	}
	b.Checksum = fnv1a(unsealed)
	return json.Marshal(b)
}

// DecodeBundle parses and verifies a bundle. On checksum mismatch it
// returns the decoded bundle alongside an error matching
// ErrBundleChecksum.
func DecodeBundle(data []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("critpath: decode bundle: %w", err)
	}
	if b.Version != BundleVersion {
		return &b, fmt.Errorf("critpath: bundle version %d (decoder knows %d)", b.Version, BundleVersion)
	}
	want := b.Checksum
	b.Checksum = 0
	unsealed, err := json.Marshal(&b)
	b.Checksum = want
	if err != nil {
		return &b, fmt.Errorf("critpath: decode bundle: %w", err)
	}
	if got := fnv1a(unsealed); got != want {
		return &b, fmt.Errorf("%w (got %#x, want %#x)", ErrBundleChecksum, got, want)
	}
	return &b, nil
}

// ReadBundle loads and verifies a bundle file.
func ReadBundle(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("critpath: read bundle: %w", err)
	}
	return DecodeBundle(data)
}

// fnv1a is the byte-wise 64-bit FNV-1a a bundle is sealed with.
func fnv1a(data []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range data {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

// sanitizeSnapshot replaces non-finite floats with 0 so the bundle always
// marshals (encoding/json rejects NaN and Inf) and re-marshals
// deterministically.
func sanitizeSnapshot(s *metrics.Snapshot) *metrics.Snapshot {
	if s == nil {
		return nil
	}
	for name, v := range s.Gauges {
		s.Gauges[name] = finite(v)
	}
	for name, f := range s.Fits {
		f.N = finite(f.N)
		f.SumX = finite(f.SumX)
		f.SumY = finite(f.SumY)
		f.SumXX = finite(f.SumXX)
		f.SumXY = finite(f.SumXY)
		f.Alpha = finite(f.Alpha)
		f.Beta = finite(f.Beta)
		s.Fits[name] = f
	}
	return s
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
