// Package pipeline is the parallel wavefront runtime of §3.2 and §4: it
// block-distributes a scan block's region along the wavefront dimension
// over p ranks, gives each rank a local copy of every referenced array with
// fluff (ghost) margins, and executes the wavefront either naively (each
// rank computes its whole portion, then forwards its boundary) or pipelined
// (each rank computes width-b tiles along an orthogonal dimension and
// forwards each tile's boundary eagerly, overlapping the ranks).
//
// The runtime communicates only through package comm — no rank reads
// another rank's local fields — so its message counts are exactly the
// messages a distributed-memory implementation would send.
package pipeline

import (
	"errors"
	"fmt"
	"time"

	"wavefront/internal/bufpool"
	"wavefront/internal/comm"
	"wavefront/internal/critpath"
	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/fault"
	"wavefront/internal/grid"
	"wavefront/internal/metrics"
	"wavefront/internal/scan"
	"wavefront/internal/trace"
)

// Config selects the decomposition and the tiling of a parallel run.
type Config struct {
	// Procs is the number of ranks along the wavefront dimension.
	Procs int
	// Block is the tile width b along the tile dimension; 0 requests the
	// naive schedule (one tile spanning the whole width).
	Block int
	// WavefrontDim overrides the analysis' choice of wavefront dimension;
	// -1 (or leaving Auto true semantics via -1) accepts the analysis.
	WavefrontDim int
	// TileDim overrides the tiled orthogonal dimension; -1 accepts the
	// default (the first parallel dimension, else the first non-wavefront
	// dimension).
	TileDim int
	// Trace, when non-nil, records every rank's execution (sends, receives,
	// per-tile compute spans, scatter/gather) to the recorder; Stats then
	// carries the derived Summary. Nil — the default — disables tracing at
	// the cost of a pointer check per operation.
	Trace *trace.Recorder
	// Faults, when non-nil, injects the compiled fault plan into every send
	// and receive (see internal/fault). Nil — the default — disables
	// injection at the cost of a pointer check per operation.
	Faults *fault.Injector
	// LinkCapacity bounds every comm link to at most this many queued
	// messages; senders then block on a full link (backpressure). 0 — the
	// default — never blocks a sender: a link then holds the whole sweep's
	// messages (see Session.linkCapacity).
	LinkCapacity int
	// Metrics, when non-nil, streams counters, latency histograms, and the
	// online model-drift estimate into the registry (see internal/metrics);
	// the registry may be scraped concurrently, e.g. via metrics.Serve. Nil
	// — the default — disables collection at the cost of a pointer check
	// per operation.
	Metrics *metrics.Registry
	// Pool, when non-nil, recycles pipeline message buffers through
	// size-classed per-rank free lists (see internal/bufpool): senders
	// lease payloads from their shard, receivers return them to it, and
	// the steady-state wave allocates nothing. Nil — the default —
	// allocates a fresh buffer per message. Pooling is incompatible with
	// fault injection (duplicated and corrupted payloads alias buffers a
	// recycling pool must never see), so the pool is ignored when Faults
	// is also set.
	Pool *bufpool.Pool
	// Kernel selects the execution engine for compiled kernels: the span
	// tape by default, or scan.EngineClosure to force the per-point
	// compiled-closure reference path (the A/B leg for validation).
	Kernel scan.Engine
	// Scheduler selects how each rank executes its portion: the static
	// tile-by-tile pipeline schedule (scan.SchedStatic, the default) or a
	// work-stealing task DAG over dependency-counted tiles on real
	// goroutines (scan.SchedTaskDAG; see internal/taskdag). Under the task
	// DAG a rank receives all upstream boundary messages, runs its portion
	// as a tile DAG across Workers goroutines, then forwards all boundary
	// messages — the message sequence is identical to the static schedule,
	// so results stay bit-identical and mixed-scheduler pipelines
	// interoperate.
	Scheduler scan.Scheduler
	// Workers is each rank's task-DAG pool size, including the rank's own
	// goroutine; <= 0 selects runtime.GOMAXPROCS(0). Ignored under
	// SchedStatic.
	Workers int
	// Transport selects how boundary messages physically travel between
	// ranks: the in-process channel transport (the zero value and zero-alloc
	// default) or a loopback TCP/unix-socket transport (see comm.Transport).
	// Socket transports are incompatible with LinkCapacity.
	Transport comm.TransportConfig
	// Checkpoint, when non-nil, snapshots every rank's state at the cut
	// points CheckpointConfig.Every counts — for this one-block run, the
	// top of each tile — and restarts a crashed rank from its latest
	// snapshot, replaying the boundary messages it had consumed: the run
	// then completes bit-identical to a fault-free run instead of
	// canceling. Nil — the default — keeps the fail-fast cancellation
	// behavior and the zero-alloc steady state.
	Checkpoint *CheckpointConfig
	// AutoTune, when true and Metrics is non-nil, consults the drift
	// monitor before planning: when the α/β/τ estimates rest on enough
	// observations and predict that Block is mistuned by more than ~5%,
	// the run uses Equation (1)'s recomputed optimal width instead. The
	// registry carries calibration across runs, so a Config reused with
	// the same registry converges onto the model's choice.
	AutoTune bool
	// Postmortem, when non-nil, arms the flight recorder: every structured
	// failure (deadlock, injected fault, cancellation, checkpoint checksum
	// error, recovery restart) captures a post-mortem bundle at run end,
	// and clean runs stash their state for Postmortem.CaptureNow. When
	// Trace is nil the runtime arms an internal flight ring so the bundle
	// still carries a trace tail; Stats.Summary stays nil in that case.
	// Nil — the default — disables the recorder at the cost of a pointer
	// check per run.
	Postmortem *critpath.Postmortem
}

// Retuning thresholds: how many comm-cost samples the α/β estimate needs
// before it is trusted, and the predicted mistune penalty (predicted
// actual / predicted optimal) that justifies abandoning the configured
// block size.
const (
	autoTuneMinSamples = 32
	autoTuneMistune    = 1.05
)

// DefaultConfig returns a Config that accepts the analysis' choices.
func DefaultConfig(procs, block int) Config {
	return Config{Procs: procs, Block: block, WavefrontDim: -1, TileDim: -1}
}

// Stats reports what a run did. Rank i held the i-th slab in index order
// along WavefrontDim; where Loop travels that dimension high to low the
// wavefront entered at rank Procs-1 and boundary messages flowed i+1 → i.
type Stats struct {
	Procs        int
	Block        int
	WavefrontDim int
	TileDim      int
	Tiles        int
	Loop         dep.LoopSpec
	// Pipelined lists the arrays whose boundaries flowed through the
	// pipeline, with their halo depths.
	Pipelined map[string]int
	Comm      comm.Stats
	Elapsed   time.Duration
	// Summary is the per-rank busy/wait/comm breakdown with pipeline
	// fill/drain/overlap, derived from the trace; nil when Config.Trace
	// was nil.
	Summary *trace.Summary
	// Drift is the model-drift report refreshed by this run (measured α/β,
	// recomputed optimal block, predicted vs observed makespan); nil when
	// Config.Metrics was nil.
	Drift *metrics.DriftReport
	// Pool is a snapshot of the buffer pool's cumulative totals after the
	// run; nil when Config.Pool was nil or ignored.
	Pool *bufpool.Stats
}

// ErrUnsupported marks scan blocks whose dependence pattern the 1-D
// pipelined runtime cannot execute (e.g. true dependences crossing the
// processor boundary against the wavefront direction).
var ErrUnsupported = errors.New("pipeline: unsupported dependence pattern")

// plan is one block's decomposition along the session's wavefront
// dimension: what flows through the pipeline, how far each array's halo
// reaches, and how the tile dimension is cut. It holds no run state — a
// plan is shared by every rank and changes only between Runs (Retune).
type plan struct {
	an     *scan.Analysis
	region grid.Region // the block's region (tilings derive from it)
	wDim   int
	tDim   int
	block  int
	tiles  []grid.Range // tile ranges along tDim, in traversal order
	// tileTravel orders the tiles so every dependence points to the same or
	// an earlier tile; it may differ from the within-tile loop direction.
	tileTravel grid.LoopDir
	// noTiling forces a single tile when no traversal direction respects
	// all dependences at tile granularity.
	noTiling bool
	maxFwd   int // forward reach along tDim of cross-boundary reads
	// pipeArrays maps array name -> halo depth along wDim to forward.
	pipeArrays map[string]int
	pipeNames  []string // sorted for deterministic message layout
	// halo per array: negative and positive expansion per dimension.
	halo map[string]haloSpec
	// refresh[side] names, sorted, the arrays whose halo on that side of the
	// wavefront dimension the block reads as the last exchange left it (see
	// analyzeRefs); a dirty one is exchanged before the block runs.
	refresh [2][]string
	// written arrays (gathered back at the end).
	written map[string]bool
}

type haloSpec struct {
	neg, pos []int
}

// The two sides of a rank's slab along the wavefront dimension, as halo
// indices and as bits of a dirty mark: the neg halo holds rows owned by
// rank id-1, the pos halo rows owned by rank id+1.
const (
	sideNeg = iota
	sidePos

	dirtyNeg  uint8 = 1 << sideNeg
	dirtyPos  uint8 = 1 << sidePos
	dirtyBoth       = dirtyNeg | dirtyPos
)

// sideOf returns the halo a reference shifted by sw along the wavefront
// dimension reads.
func sideOf(sw int) int {
	if sw < 0 {
		return sideNeg
	}
	return sidePos
}

// Run executes the block across cfg.Procs ranks and returns statistics.
// The result in env's fields is identical to serial execution. It is a
// Session over the block's region with the block as its whole program:
// rank i holds the i-th slab in index order along the wavefront dimension
// whatever the travel direction, so on a high-to-low wavefront rank i's
// upstream neighbour is rank i+1.
func Run(b *scan.Block, env expr.Env, cfg Config) (*Stats, error) {
	sess, err := oneBlockSession(b, env, cfg)
	if err == nil {
		err = sess.arm()
	}
	if err != nil {
		return nil, err
	}
	if err := sess.Run(func(r *Rank) error { return r.Exec(b) }); err != nil {
		return nil, err
	}
	pl, st := sess.plans[b], sess.stats
	return &Stats{
		Procs:        cfg.Procs,
		Block:        pl.block,
		WavefrontDim: pl.wDim,
		TileDim:      pl.tDim,
		Tiles:        len(pl.tiles),
		Loop:         pl.an.Loop,
		Pipelined:    pl.pipeArrays,
		Comm:         st.Comm,
		Elapsed:      st.Elapsed,
		Summary:      st.Summary,
		Drift:        st.Drift,
		Pool:         st.Pool,
	}, nil
}

// Plan exposes the decomposition the runtime would use, for tools and
// tests.
func Plan(b *scan.Block, env expr.Env, cfg Config) (wDim, tDim, tiles int, pipelined map[string]int, err error) {
	sess, err := oneBlockSession(b, env, cfg)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	pl := sess.plans[b]
	return pl.wDim, pl.tDim, len(pl.tiles), pl.pipeArrays, nil
}

// oneBlockSession builds the session Run executes, not yet armed: the
// block's region is the domain, and the wavefront dimension is the first
// candidate along which the block decomposes.
func oneBlockSession(b *scan.Block, env expr.Env, cfg Config) (*Session, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("pipeline: need at least 1 rank, got %d", cfg.Procs)
	}
	if b.Kind == scan.PlainKind && len(b.Stmts) > 1 {
		return nil, fmt.Errorf("%w: plain multi-statement blocks run statement-at-a-time; parallelize each statement", ErrUnsupported)
	}
	if err := scan.CheckBounds(b, env); err != nil {
		return nil, err
	}
	an, err := scan.Analyze(b, dep.Preference{PreferLow: true})
	if err != nil {
		return nil, err
	}
	if an.NeedsTemp() {
		return nil, fmt.Errorf("%w: statement requires a temporary; no wavefront to pipeline", ErrUnsupported)
	}
	rank := b.Region.Rank()
	if cfg.TileDim >= rank {
		return nil, fmt.Errorf("pipeline: tile dimension %d out of range for rank %d", cfg.TileDim, rank)
	}

	// Candidate wavefront dimensions: an explicit override is tried alone;
	// otherwise the classification's pipelined dimensions are tried first,
	// then every remaining dimension — a dimension the three-case rule calls
	// serial can still pipeline here when the runtime's tile-lag mechanism
	// covers its diagonal dependences.
	var candidates []int
	if cfg.WavefrontDim >= 0 {
		if cfg.WavefrontDim >= rank {
			return nil, fmt.Errorf("pipeline: wavefront dimension %d out of range for rank %d", cfg.WavefrontDim, rank)
		}
		candidates = []int{cfg.WavefrontDim}
	} else {
		seen := make([]bool, rank)
		for _, d := range an.Class.WavefrontDims() {
			candidates = append(candidates, d)
			seen[d] = true
		}
		for d := 0; d < rank; d++ {
			if !seen[d] {
				candidates = append(candidates, d)
			}
		}
	}

	scfg := SessionConfig{
		Procs: cfg.Procs, Domain: b.Region, Block: cfg.Block,
		Trace: cfg.Trace, Faults: cfg.Faults, LinkCapacity: cfg.LinkCapacity,
		Transport: cfg.Transport, Checkpoint: cfg.Checkpoint, Metrics: cfg.Metrics,
		Pool: cfg.Pool, AutoTune: cfg.AutoTune, Kernel: cfg.Kernel,
		Scheduler: cfg.Scheduler, Workers: cfg.Workers, Postmortem: cfg.Postmortem,
	}
	var firstErr error
	for _, wDim := range candidates {
		if cfg.TileDim == wDim {
			return nil, fmt.Errorf("pipeline: tile dimension %d equals wavefront dimension", wDim)
		}
		scfg.WavefrontDim = wDim
		sess, err := newSession(env, scfg)
		if err == nil {
			err = sess.adopt(b, an, cfg.TileDim)
		}
		if err == nil {
			return sess, nil
		}
		if firstErr == nil {
			firstErr = err
		}
		if !errors.Is(err, ErrUnsupported) && cfg.WavefrontDim >= 0 {
			return nil, err
		}
	}
	return nil, firstErr
}
