// Package pipeline is the parallel wavefront runtime of §3.2 and §4: it
// block-distributes a scan block's region along the wavefront dimension
// over p ranks, gives each rank a local field of every referenced array with
// fluff (ghost) margins — the caller's storage wherever that is sound, a
// copy of a written array elsewhere (see Session.bind) — and executes the
// wavefront either naively (each rank computes its whole portion, then
// forwards its boundary) or pipelined (each rank computes width-b tiles
// along an orthogonal dimension and forwards each tile's boundary eagerly,
// overlapping the ranks).
//
// Ranks are ordered only by messages through package comm, so the message
// counts are exactly those a distributed-memory implementation would send.
// The elements they carry are what actually moved: the paper's boundary
// rows, except in a one-shot Run on the in-process transport, whose ranks
// read pipelined halo rows where the upstream rank wrote them; there a
// message is only the token that says the rows are final
// (Session.haloByReference).
package pipeline

import (
	"errors"
	"fmt"

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

// Config is the run configuration, the only one: a Session is built from
// it, and a one-shot Run is a Session over the block's region, so it takes
// the same struct (SessionConfig, wavefront.Pipeline and
// wavefront.SessionConfig are aliases). Every optional layer is off at its
// zero value, at the cost of one pointer check per operation.
type Config struct {
	// Procs is the number of ranks along the wavefront dimension.
	Procs int
	// Domain is the region a session block-distributes along WavefrontDim;
	// every registered block's region must lie within the domain's extent
	// along that dimension. Run derives it from its block and refuses a
	// config that sets it.
	Domain grid.Region
	// WavefrontDim is a session's distributed dimension (default 0). Run
	// ignores it: it tries the dimensions the block's analysis offers.
	WavefrontDim int
	// Block is the tile width b along the tile dimension; 0 requests the
	// naive schedule (one tile spanning the whole width).
	Block int
	// Trace, when non-nil, records every rank's execution (sends, receives,
	// per-tile compute spans, scatter/gather); the stats then carry the
	// derived Summary.
	Trace *trace.Recorder
	// Faults, when non-nil, injects the compiled fault plan into every send
	// and receive (see internal/fault).
	Faults *fault.Injector
	// LinkCapacity bounds every comm link to at most this many queued
	// messages; senders then block on a full link (backpressure). 0 (the
	// default) lets the session choose: one sweep's messages per link on the
	// in-process transport (see Session.linkCapacity), unbounded over
	// sockets, which have the kernel's backpressure instead.
	LinkCapacity int
	// Transport selects how messages physically travel between ranks: the
	// in-process channel transport (the zero value and zero-alloc default)
	// or a loopback TCP/unix-socket transport (see comm.Transport). Socket
	// transports are incompatible with LinkCapacity.
	Transport comm.TransportConfig
	// Checkpoint, when non-nil, snapshots every rank's state — local
	// arrays, scalars, tag counters, reduce results — at the cut points
	// CheckpointConfig.Every counts (the start of each leaf operation and
	// the top of each tile inside a wavefront sweep; for a one-shot Run, the
	// top of each tile) and restarts a crashed rank from its latest
	// snapshot: the restarted rank fast-forwards through the SPMD body's
	// already-covered operations, resumes a sweep at the snapshot's tile,
	// replays the messages it had consumed, and the run completes
	// bit-identical to a fault-free run instead of canceling. Because the
	// body re-runs from the top on a restarted rank, side effects outside
	// rank state (appending to a caller slice, say) repeat during
	// fast-forward; keep such effects idempotent or keyed. Nil (the default)
	// keeps fail-fast cancellation and the zero-alloc steady state.
	Checkpoint *CheckpointConfig
	// Metrics, when non-nil, streams counters, latency histograms, and the
	// online model-drift estimate into the registry; it may be scraped
	// concurrently while ranks run, e.g. via metrics.Serve. Nil (the
	// default) disables collection — unless MetricsAddr is set, which
	// creates a registry automatically.
	Metrics *metrics.Registry
	// MetricsAddr, when non-empty, serves the registry over HTTP at this
	// address (":0" picks a free port; see Session.MetricsAddr): Prometheus
	// text at /metrics, expvar JSON at /debug/vars, pprof under
	// /debug/pprof/, the last Run's critical path at /debug/critpath and
	// the last post-mortem bundle at /debug/bundle. The listener lives until
	// Session.Close, so Run, which has no session to close, refuses it.
	MetricsAddr string
	// Pool, when non-nil, recycles pipeline and halo-exchange message
	// buffers (see internal/bufpool): senders lease payloads from their
	// per-rank shard, receivers return them to the sender's shard, and the
	// steady-state wave allocates nothing. Nil (the default) allocates a
	// fresh buffer per message. Ignored when Faults is set — injected
	// duplicates and corruptions alias buffers a recycling pool must never
	// see.
	Pool *bufpool.Pool
	// Scheduler selects how each rank executes its portion of a block: the
	// static tile-by-tile pipeline schedule (scan.SchedStatic, default) or
	// a task DAG over dependency-counted tiles on a pool of real
	// goroutines (scan.SchedTaskDAG; see internal/taskdag). The task-DAG
	// rank receives all upstream boundary messages, runs its portion as a
	// DAG, then forwards all boundary messages; the message sequence is
	// identical to the static schedule's, so results stay bit-identical and
	// mixed-scheduler pipelines interoperate. When tracing, DAG workers
	// record into rings Procs + rank*Workers onward — size the recorder for
	// Procs*(1+Workers) rings or worker tracing is disabled.
	Scheduler scan.Scheduler
	// Workers is each rank's task-DAG pool size, including the rank's own
	// goroutine; <= 0 selects runtime.GOMAXPROCS(0). Ignored under
	// SchedStatic.
	Workers int
	// Postmortem, when non-nil, arms the flight recorder: every structured
	// failure (deadlock, injected fault, cancellation, checkpoint checksum
	// error, recovery restart) captures a post-mortem bundle at the end of
	// the Run, and clean Runs stash their state for Postmortem.CaptureNow.
	// When Trace is nil the session arms an internal flight ring (reset per
	// Run) so bundles still carry a trace tail; the stats' Summary stays
	// nil in that case.
	Postmortem *critpath.Postmortem
}

// SessionConfig is Config under the name NewSession's callers use.
type SessionConfig = Config

// DefaultConfig returns a Config for procs ranks and tile width block with
// every optional layer off.
func DefaultConfig(procs, block int) Config {
	return Config{Procs: procs, Block: block}
}

// Stats reports what a one-shot Run did. Rank i held the i-th slab in index
// order along WavefrontDim; where Loop travels that dimension high to low
// the wavefront entered at rank Procs-1 and boundary messages flowed
// i+1 → i.
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
	// SessionStats is the one-block session's account of the run: Comm,
	// Elapsed, and the Summary, Drift and Pool reports of the layers that
	// were on.
	SessionStats
}

// ErrUnsupported marks scan blocks whose dependence pattern the 1-D
// pipelined runtime cannot execute (e.g. true dependences crossing the
// processor boundary against the wavefront direction).
var ErrUnsupported = errors.New("pipeline: unsupported dependence pattern")

// plan is one block's decomposition along the session's wavefront
// dimension: what flows through the pipeline, how far each array's halo
// reaches, and how the tile dimension is cut. It is shared by every rank and
// changes only between Runs (Retune); each rank's share of it, which the
// session keeps across Runs, is in ranks.
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
	// payload is the subset of pipeNames whose rows the boundary messages
	// carry: all but the arrays every rank reads by reference (decided by
	// Session.bind; pipeNames, the paper's payload, until then, which is
	// what Program.Schedule costs).
	payload []string
	// halo per array: negative and positive expansion per dimension.
	halo map[string]haloSpec
	// refresh[side] names, sorted, the arrays whose halo on that side of the
	// wavefront dimension the block reads as the last exchange left it (see
	// analyzeRefs); a dirty one is exchanged before the block runs.
	refresh [2][]string
	// written arrays (gathered back at the end).
	written map[string]bool
	// scalars names every scalar the statements reference, once each: what
	// a rank's kernels of the block are lowered against (rankBlock.scalars).
	scalars []string
	// ranks is each rank's share of the block, by rank id (see rankBlock).
	ranks []rankBlock
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
// upstream neighbour is rank i+1. Because the block runs once, on the
// in-process transport with no checkpoint and no faults the ranks read
// pipelined halo rows in the caller's storage and the boundary messages
// carry none of them (Stats.Comm.Elements counts what moved). Domain and
// WavefrontDim come from the block, and a metrics endpoint needs a session
// to close it: a config that sets Domain or MetricsAddr is refused (use
// NewSession).
func Run(b *scan.Block, env expr.Env, cfg Config) (*Stats, error) {
	return runDims(b, env, cfg, -1, -1)
}

// runDims is Run with the wavefront and tile dimensions pinned (-1 accepts
// the analysis' choice), for tests that walk every legal pair.
func runDims(b *scan.Block, env expr.Env, cfg Config, wDim, tDim int) (*Stats, error) {
	sess, err := oneBlockSession(b, env, cfg, wDim, tDim)
	if err == nil {
		err = sess.arm()
	}
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	if err := sess.Run(func(r *Rank) error { return r.Exec(b) }); err != nil {
		return nil, err
	}
	pl := sess.plans[b]
	return &Stats{
		Procs:        cfg.Procs,
		Block:        pl.block,
		WavefrontDim: pl.wDim,
		TileDim:      pl.tDim,
		Tiles:        len(pl.tiles),
		Loop:         pl.an.Loop,
		Pipelined:    pl.pipeArrays,
		SessionStats: sess.stats,
	}, nil
}

// Plan exposes the decomposition the runtime would use, for tools and
// tests.
func Plan(b *scan.Block, env expr.Env, cfg Config) (wDim, tDim, tiles int, pipelined map[string]int, err error) {
	sess, err := oneBlockSession(b, env, cfg, -1, -1)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	pl := sess.plans[b]
	return pl.wDim, pl.tDim, len(pl.tiles), pl.pipeArrays, nil
}

// oneBlockSession builds the session Run executes, not yet armed: the
// block's region is the domain, the wavefront dimension is the first
// candidate along which the block decomposes (wDim alone when >= 0), and
// the session is marked one-shot — it executes its block once.
func oneBlockSession(b *scan.Block, env expr.Env, cfg Config, wDim, tDim int) (*Session, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("pipeline: need at least 1 rank, got %d", cfg.Procs)
	}
	if cfg.Domain.Rank() != 0 {
		return nil, errors.New("pipeline: Run distributes its block's own region; Domain belongs to NewSession")
	}
	if cfg.MetricsAddr != "" {
		return nil, errors.New("pipeline: Run has no session to close a metrics endpoint; set MetricsAddr on NewSession")
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
	if tDim >= rank {
		return nil, fmt.Errorf("pipeline: tile dimension %d out of range for rank %d", tDim, rank)
	}

	// Candidate wavefront dimensions: a pinned one is tried alone; otherwise
	// the classification's pipelined dimensions are tried first, then every
	// remaining dimension — a dimension the three-case rule calls serial can
	// still pipeline here when the runtime's tile-lag mechanism covers its
	// diagonal dependences.
	var candidates []int
	if wDim >= 0 {
		if wDim >= rank {
			return nil, fmt.Errorf("pipeline: wavefront dimension %d out of range for rank %d", wDim, rank)
		}
		candidates = []int{wDim}
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

	cfg.Domain = b.Region
	var firstErr error
	for _, w := range candidates {
		if tDim == w {
			return nil, fmt.Errorf("pipeline: tile dimension %d equals wavefront dimension", w)
		}
		cfg.WavefrontDim = w
		sess, err := newSession(env, cfg)
		if err == nil {
			err = sess.adopt(b, an, tDim)
		}
		if err == nil {
			sess.oneShot = true
			return sess, nil
		}
		if firstErr == nil {
			firstErr = err
		}
		if !errors.Is(err, ErrUnsupported) && wDim >= 0 {
			return nil, err
		}
	}
	return nil, firstErr
}
