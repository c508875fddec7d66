// Package metrics is the runtime's live introspection layer: a named
// registry of low-overhead instruments — per-rank sharded counters,
// gauges, log-bucketed latency histograms, and streaming linear fits —
// that the comm substrate, the pipeline runtime, and sessions update on
// their hot paths and that can be scraped while a job runs.
//
// Design rules, in order:
//
//   - the disabled case (a nil *Registry, mirroring a nil trace.Recorder)
//     costs one pointer comparison per operation and allocates nothing;
//   - hot-path updates are lock-free: every instrument shards its state
//     per rank, each shard padded to its own cache line, so concurrent
//     ranks never contend and a scrape (atomic loads) never blocks a rank;
//   - instrument lookup by name happens at attach time, not per operation:
//     the Observer of a Run (observer.go) and the few sites with counts of
//     their own resolve their instruments once and hold the pointers.
//
// On top of the registry sit the model-drift monitor (drift.go), which
// folds the measured compute and communication costs into running α/β
// estimates and recomputes Equation (1)'s optimal block size, and the
// serving endpoint (serve.go), which exposes Prometheus text, expvar
// JSON, and pprof over HTTP.
package metrics

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"wavefront/internal/model"
)

// Standard instrument names. The comm_*, pipeline_*, session_* and
// ckpt_snapshots/restores instruments that measure a span are fed by the
// Observer alone (observer.go), from the event the trace ring also holds;
// the rest are counts their sites add to directly.
const (
	// comm substrate (per-rank counters).
	CommSends     = "comm_sends_total"
	CommRecvs     = "comm_recvs_total"
	CommSendBytes = "comm_send_bytes_total"
	CommRecvBytes = "comm_recv_bytes_total"
	CommBlockedNs = "comm_blocked_wait_ns_total" // blocked part of sends and receives
	CommStalls    = "comm_backpressure_stalls_total"
	CommFaults    = "comm_faults_total"
	CommCancels   = "comm_cancels_total"

	// pipeline runtime.
	PipeTiles     = "pipeline_tiles_total"
	PipePoints    = "pipeline_points_total" // grid points computed by kernels
	PipeWaves     = "pipeline_wave_epochs_total"
	PipeBusyNs    = "pipeline_busy_ns_total" // a rank's compute spans, as trace.RingClass.Busy
	PipeWaitNs    = "pipeline_wait_ns_total" // all of a rank's wait, as trace.RingClass.Wait: blocked comm plus barriers
	PipeWaveMsgs  = "pipeline_wave_msgs_total"
	PipeWaveElems = "pipeline_wave_elems_total"
	PipeTileNs    = "pipeline_tile_ns" // histogram of per-tile compute ns
	PipeFillNs    = "pipeline_fill_ns" // gauges: last run's phase split
	PipeDrainNs   = "pipeline_drain_ns"
	PipeSteadyNs  = "pipeline_steady_ns"
	// KernelNsPerPoint is the last run's mean kernel compute cost per grid
	// point (busy ns / points) — the figure of merit for the tape-vs-closure
	// engine comparison.
	KernelNsPerPoint = "kernel_ns_per_point"

	// Kernel executor path mix (per-rank counters, one count per statement
	// per tile): which path actually ran — whole unit-stride spans, skewed
	// hyperplane runs, the scalar per-point tape, or the closure
	// reference/fallback path. The Prometheus exporter renders the family
	// as kernel_path_total{path="..."} so fallbacks are visible on a
	// scrape, not just in post-mortems.
	KernelPathSpan    = "kernel_path_span_total"
	KernelPathSkewed  = "kernel_path_skewed_total"
	KernelPathScalar  = "kernel_path_scalar_total"
	KernelPathClosure = "kernel_path_closure_total"

	// session layer (per-rank counters).
	SessExchanges  = "session_halo_exchanges_total"
	SessReductions = "session_reductions_total"
	SessBarriers   = "session_barriers_total"

	// model-drift monitor (fits fed by the runtime, gauges set by
	// UpdateDrift).
	ModelCommFit      = "model_comm_cost"    // fit: x = message elems, y = ns
	ModelCompFit      = "model_compute_cost" // fit: x = tile elems, y = ns
	ModelAlphaNs      = "model_alpha_ns"
	ModelBetaNs       = "model_beta_ns"
	ModelElemNs       = "model_elem_ns"
	ModelOptBlock     = "model_optimal_block"
	ModelPredictedNs  = "model_predicted_ns"        // at the recomputed optimal b
	ModelPredActualNs = "model_predicted_actual_ns" // at the block size actually used
	ModelObservedNs   = "model_observed_ns"
	ModelDrift        = "model_drift_ratio"
	ModelSamples      = "model_comm_samples" // comm-cost observations behind α/β

	// buffer pool health (gauges refreshed per run from the pool's own
	// totals; see internal/bufpool).
	PoolHits     = "pool_hits_total"
	PoolMisses   = "pool_misses_total"
	PoolReturns  = "pool_returns_total"
	PoolDiscards = "pool_discards_total"
	PoolHitRatio = "pool_hit_ratio"

	// task-DAG scheduler (per-rank counters; the rank's worker pool flushes
	// its per-worker totals here after every DAG run). A steal is a tile run
	// by a worker other than the one whose completed tile released it.
	TaskTiles   = "taskdag_tiles_total"
	TaskSteals  = "taskdag_steals_total"
	TaskParks   = "taskdag_parks_total"
	TaskUnparks = "taskdag_unparks_total"
	// TaskSpanWidth is a gauge, set when a graph is built: the tile width
	// along the loop's innermost (span) dimension — how long a row-span the
	// chosen tile geometry leaves the kernel.
	TaskSpanWidth = "taskdag_span_width"

	// checkpoint/restart (per-rank counters; see internal/ckpt and the
	// pipeline's Checkpoint wiring).
	CkptSnapshots = "ckpt_snapshots_total"
	CkptRestores  = "ckpt_restores_total"
	CkptReplayed  = "ckpt_replayed_msgs_total"

	// TraceDropped counts trace events lost to ring wrap-around, per rank
	// (worker rings fold into their owning rank). A nonzero value means
	// summaries, validation, and critical-path analysis saw a truncated
	// history.
	TraceDropped = "trace_dropped_events_total"
)

// padCell is one cache-line-padded atomic counter cell. 64 bytes of
// padding after the 8-byte value keeps adjacent ranks' cells off the same
// line on every mainstream CPU.
type padCell struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing per-rank sharded count. A nil
// *Counter is a no-op.
type Counter struct {
	shards []padCell
}

// Add adds d to rank's shard. Only meaningful for rank in [0, procs).
func (c *Counter) Add(rank int, d int64) {
	if c == nil {
		return
	}
	c.shards[rank].v.Add(d)
}

// Rank returns one shard's value.
func (c *Counter) Rank(r int) int64 {
	if c == nil || r < 0 || r >= len(c.shards) {
		return 0
	}
	return c.shards[r].v.Load()
}

// Value returns the sum over all shards.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var n int64
	for i := range c.shards {
		n += c.shards[i].v.Load()
	}
	return n
}

// PerRank returns a copy of the per-rank values.
func (c *Counter) PerRank() []int64 {
	if c == nil {
		return nil
	}
	out := make([]int64, len(c.shards))
	for i := range c.shards {
		out[i] = c.shards[i].v.Load()
	}
	return out
}

func (c *Counter) reset() {
	for i := range c.shards {
		c.shards[i].v.Store(0)
	}
}

// Gauge is a single float64 value, set atomically. A nil *Gauge is a
// no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Non-finite values are dropped so a scrape never emits NaN.
func (g *Gauge) Set(v float64) {
	if g == nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value loads the gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) reset() { g.bits.Store(0) }

// fitShard is one rank's share of a Fit: the five running sums of
// model.LinearFit as atomic float64 bits. Updates CAS-loop; observations
// are per-message or per-tile, far off the per-element hot path.
type fitShard struct {
	n, sumX, sumY, sumXX, sumXY atomic.Uint64
	_                           [24]byte // round the shard up to two cache lines
}

func addFloat(a *atomic.Uint64, d float64) {
	for {
		old := a.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if a.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Fit accumulates (x, y) observations per rank for a streaming linear fit
// y = α + β·x (see model.LinearFit). A nil *Fit is a no-op.
type Fit struct {
	shards []fitShard
}

// Observe folds one observation into rank's shard.
func (f *Fit) Observe(rank int, x, y float64) {
	if f == nil {
		return
	}
	s := &f.shards[rank]
	addFloat(&s.n, 1)
	addFloat(&s.sumX, x)
	addFloat(&s.sumY, y)
	addFloat(&s.sumXX, x*x)
	addFloat(&s.sumXY, x*y)
}

// Merged folds every shard into one model.LinearFit.
func (f *Fit) Merged() model.LinearFit {
	var out model.LinearFit
	if f == nil {
		return out
	}
	for i := range f.shards {
		s := &f.shards[i]
		out.Merge(model.LinearFit{
			N:     math.Float64frombits(s.n.Load()),
			SumX:  math.Float64frombits(s.sumX.Load()),
			SumY:  math.Float64frombits(s.sumY.Load()),
			SumXX: math.Float64frombits(s.sumXX.Load()),
			SumXY: math.Float64frombits(s.sumXY.Load()),
		})
	}
	return out
}

func (f *Fit) reset() {
	for i := range f.shards {
		s := &f.shards[i]
		s.n.Store(0)
		s.sumX.Store(0)
		s.sumY.Store(0)
		s.sumXX.Store(0)
		s.sumXY.Store(0)
	}
}

// Registry is a named set of instruments sized for a fixed rank count.
// The zero value is not usable; call New. A nil *Registry is the disabled
// registry: every method is safe to call and does nothing, the same
// contract as a nil trace.Recorder.
type Registry struct {
	procs int
	epoch time.Time

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	fits     map[string]*Fit
}

// New creates a registry whose per-rank instruments carry procs shards.
func New(procs int) *Registry {
	if procs < 1 {
		procs = 1
	}
	return &Registry{
		procs:    procs,
		epoch:    time.Now(),
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		fits:     map[string]*Fit{},
	}
}

// Enabled reports whether the registry records (false for nil).
func (r *Registry) Enabled() bool { return r != nil }

// Procs returns the shard count (0 for nil).
func (r *Registry) Procs() int {
	if r == nil {
		return 0
	}
	return r.procs
}

// Now returns nanoseconds since the registry epoch (0 for nil).
func (r *Registry) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// Counter returns the named counter, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{shards: make([]padCell, r.procs)}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{shards: make([]histShard, r.procs)}
		r.hists[name] = h
	}
	return h
}

// Fit returns the named fit, creating it on first use.
func (r *Registry) Fit(name string) *Fit {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fits[name]
	if !ok {
		f = &Fit{shards: make([]fitShard, r.procs)}
		r.fits[name] = f
	}
	return f
}

// Reset zeroes every instrument and restarts the epoch, keeping the
// registered names and preallocated shards. Safe to call between runs;
// not meaningful concurrently with a run.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.epoch = time.Now()
	for _, c := range r.counters {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
	for _, f := range r.fits {
		f.reset()
	}
}

// CounterSnapshot is one counter's per-rank values and total.
type CounterSnapshot struct {
	PerRank []int64 `json:"per_rank"`
	Total   int64   `json:"total"`
}

// FitSnapshot is one fit's merged sums plus the solved parameters.
type FitSnapshot struct {
	model.LinearFit
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta"`
}

// Snapshot is a point-in-time copy of every instrument, suitable for JSON
// export and for computing rates between two scrapes. Individual loads
// are atomic; the snapshot as a whole is not (ranks keep running).
type Snapshot struct {
	Procs      int                        `json:"procs"`
	WallNs     int64                      `json:"wall_ns"`
	Counters   map[string]CounterSnapshot `json:"counters"`
	Gauges     map[string]float64         `json:"gauges"`
	Histograms map[string]HistSnapshot    `json:"histograms"`
	Fits       map[string]FitSnapshot     `json:"fits"`
}

// Snapshot captures every registered instrument. Returns nil on a nil
// registry.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Procs:      r.procs,
		WallNs:     int64(time.Since(r.epoch)),
		Counters:   make(map[string]CounterSnapshot, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
		Fits:       make(map[string]FitSnapshot, len(r.fits)),
	}
	for name, c := range r.counters {
		per := c.PerRank()
		var total int64
		for _, v := range per {
			total += v
		}
		s.Counters[name] = CounterSnapshot{PerRank: per, Total: total}
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Merged()
	}
	for name, f := range r.fits {
		lf := f.Merged()
		alpha, beta, _ := lf.AlphaBeta()
		s.Fits[name] = FitSnapshot{LinearFit: lf, Alpha: alpha, Beta: beta}
	}
	return s
}
