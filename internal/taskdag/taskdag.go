// Package taskdag executes one scan block's iteration space as a dynamic
// task DAG on real OS threads, turning the simulator's modeled parallelism
// into wall-clock multicore speedup.
//
// The grid is decomposed into rectangular 2D/3D tiles. Each tile carries an
// atomic dependency counter initialized to its in-degree in the tile DAG,
// whose edges are derived from the same unconstrained distance vectors
// (UDVs) the serial loop derivation uses: a UDV with distance d connects an
// iteration p to its source p - d, so with tile widths of at least the
// dependence reach per dimension, every cross-tile dependence lands in an
// adjacent tile and the edge set is the per-UDV cross product of
// {0, sign(d_k)} offsets. Acyclicity of the resulting DAG is proved by
// running the loop derivation itself over the offset vectors — if a legal
// loop nest orders the tile space, the DAG embeds in a linear order — and
// dimensions that defeat the derivation are collapsed to a single tile.
//
// Tile geometry follows the paper's split between wavefront dimensions and
// fully parallel ones, plus the loop order. A dimension a dependence crosses
// must be cut for tiles to pipeline, and a dependence-free outer dimension
// can be cut for free; both get about 4*Workers chunks. The loop's innermost
// (span) dimension is the one the kernel walks as contiguous row-spans, so
// when no dependence crosses it every cut shortens every row-span and buys
// only parallelism: it is cut into just the chunks the pool still lacks
// after the other free dimensions have supplied theirs — one (whole rows)
// when they supply enough, Workers when it is the only free dimension.
//
// Ready tiles execute on a work-stealing pool: the caller participates as
// worker 0 and Workers-1 goroutines (spawned once at New, parked between
// runs) each own a LIFO deque. A worker pops its own tail, steals half of a
// victim's deque from the head when empty, and parks on a condition
// variable when no work exists anywhere; completing a tile decrements each
// successor's counter and a counter reaching zero pushes the successor and
// wakes a parked worker. Everything — tiles, adjacency, counters, deques,
// steal buffers — is preallocated at New, so a steady-state Run allocates
// nothing and the zero-alloc contract of the static pipeline survives.
//
// Per-worker trace events (KindTaskTile, KindTaskDep) let trace.Validate
// check the wavefront safety of the dynamic schedule post-hoc: every tile's
// predecessors completed before it started, whatever order the steals
// produced.
package taskdag

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"wavefront/internal/dep"
	"wavefront/internal/grid"
	"wavefront/internal/metrics"
	"wavefront/internal/trace"
)

// Options configures a Graph.
type Options struct {
	// Workers is the pool size including the calling goroutine; <= 0
	// selects runtime.GOMAXPROCS(0).
	Workers int
	// TileW fixes per-dimension tile widths; entries <= 0 (and a nil or
	// short slice) select the automatic width: about 4*Workers chunks (at
	// least 8 points wide) for a dimension a dependence crosses or a
	// dependence-free outer dimension, and max(1, ceil(Workers/P)) chunks
	// for a dependence-free innermost (span) dimension, P being the chunks
	// the other dependence-free dimensions supply. Set or automatic, a
	// width is never below the dependence reach.
	TileW []int
	// Trace, when non-nil, records per-worker KindTaskTile / KindTaskDep
	// events into rings TraceBase..TraceBase+Workers-1. When the recorder
	// has too few rings, tracing is silently disabled (a ring may only
	// ever have one writer).
	Trace     *trace.Recorder
	TraceBase int
	// Metrics, when non-nil, receives the pool's tile/steal/park totals
	// (metrics.TaskTiles and friends) in the MetricsRank shard after each
	// Run, and the span-dimension tile width (metrics.TaskSpanWidth) at
	// build.
	Metrics     *metrics.Registry
	MetricsRank int
	// StealSeed, when non-zero, deterministically perturbs victim order
	// and steal amounts (the schedule-order fuzz hook). Zero keeps the
	// canonical rotation.
	StealSeed int64
}

// WorkerStats is one worker's cumulative scheduling counters.
type WorkerStats struct {
	// Tiles counts tiles this worker executed.
	Tiles int64
	// Steals counts successful steal operations (any batch size).
	Steals int64
	// Parks and Unparks count blocking waits on the pool's condition
	// variable and the wakeups that ended them.
	Parks, Unparks int64
}

// graphSeq numbers graphs process-wide; it keys the Wave identity of trace
// events so concurrent graphs (and the static pipeline's small wave
// numbers) never collide in one recorder.
var graphSeq atomic.Int64

// Graph is a tiled dependence DAG over one region, bound to a work-stealing
// pool. Build one with New, attach a tile body with SetRunner, execute with
// Run (repeatable), and release the pool's goroutines with Stop. Run and
// Stop must not be called concurrently; WorkerStats and CorruptCounter may
// only be called with no Run in flight.
type Graph struct {
	region grid.Region
	rank   int
	loop   dep.LoopSpec

	shape   []int // tiles per dimension
	tileW   []int // tile width per dimension, in iteration counts
	strides []int // tile-index strides (row-major over shape)
	offsets [][]int

	tiles   []grid.Region
	subOf   []int32 // owning sub-graph per tile (NewMulti; nil for New)
	subs    int
	preds   [][]int32
	succs   [][]int32
	initCnt []int32
	counts  []atomic.Int32
	corrupt []bool
	seedBuf []int32

	workers   []*worker
	runner    func(worker int, tile grid.Region)
	runnerSub func(worker, sub int, tile grid.Region)
	wg        sync.WaitGroup

	mu      sync.Mutex
	cond    *sync.Cond
	gen     int64 // run generation (guarded by mu)
	exited  int   // spawned workers done with the current run (guarded by mu)
	idle    int   // parked workers (guarded by mu)
	stopped bool  // guarded by mu

	idleCount atomic.Int32
	ready     atomic.Int64
	remaining atomic.Int64
	done      atomic.Bool

	tr       *trace.Recorder
	trBase   int
	wave     int // current run's wave identity
	waveBase int
	runSeq   int

	reg                              *metrics.Registry
	metricsRank                      int
	mTiles, mSteals, mParks, mUnpark *metrics.Counter
	flushed                          []WorkerStats
}

// worker is one pool member: a mutex-guarded ring deque (owner pops the
// tail, thieves take from the head), a preallocated steal buffer, and
// single-writer scheduling stats.
type worker struct {
	id  int
	mu  sync.Mutex
	deq []int32
	// ring occupancy: entries live at indices head..head+n-1 mod len(deq).
	head, n  int
	stealBuf []int32
	rng      uint64
	seed     int64
	stats    WorkerStats
	_        [64]byte // keep adjacent workers' hot state off one cache line
}

func (w *worker) pushTailLocked(t int32) {
	w.deq[(w.head+w.n)%len(w.deq)] = t
	w.n++
}

func (w *worker) popTailLocked() int32 {
	w.n--
	return w.deq[(w.head+w.n)%len(w.deq)]
}

// nextRand is a xorshift64 step; only the worker's own goroutine calls it.
func (w *worker) nextRand() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x
}

// New builds the tile DAG for region under the block's derived loop and
// UDVs and spawns the worker pool (parked until Run). The loop spec orders
// execution within a tile only; across tiles the DAG rules.
func New(region grid.Region, loop dep.LoopSpec, udvs []dep.UDV, opt Options) (*Graph, error) {
	rank := region.Rank()
	if rank == 0 {
		return nil, fmt.Errorf("taskdag: rank-0 region")
	}
	if len(loop.Perm) != rank {
		return nil, fmt.Errorf("taskdag: loop spec has rank %d, region has rank %d", len(loop.Perm), rank)
	}
	for _, u := range udvs {
		if len(u.Dist) != rank {
			return nil, fmt.Errorf("taskdag: UDV %v has rank %d, want %d", u, len(u.Dist), rank)
		}
	}
	W := opt.Workers
	if W <= 0 {
		W = runtime.GOMAXPROCS(0)
	}
	g := &Graph{region: region, rank: rank, loop: loop, metricsRank: opt.MetricsRank}
	g.cond = sync.NewCond(&g.mu)
	g.waveBase = int(graphSeq.Add(1)) << 16

	sizes := make([]int, rank)
	empty := false
	for d := 0; d < rank; d++ {
		sizes[d] = region.Dim(d).Size()
		if sizes[d] == 0 {
			empty = true
		}
	}
	if !empty {
		g.decompose(sizes, udvs, opt.TileW, W)
	} else {
		g.shape = make([]int, rank)
		g.tileW = make([]int, rank)
		g.strides = make([]int, rank)
	}

	g.initPool(W, opt)
	return g, nil
}

// initPool allocates everything sized by the (now final) tile count and the
// pool width, wires trace/metrics sinks, and spawns the parked workers. It
// is the shared tail of New and NewMulti.
func (g *Graph) initPool(W int, opt Options) {
	n := len(g.tiles)
	capDeq := n
	if capDeq < 1 {
		capDeq = 1
	}
	g.workers = make([]*worker, W)
	for i := range g.workers {
		w := &worker{id: i, deq: make([]int32, capDeq), stealBuf: make([]int32, capDeq), seed: opt.StealSeed}
		w.rng = uint64(opt.StealSeed)*0x9e3779b97f4a7c15 + uint64(i) + 1
		g.workers[i] = w
	}
	g.seedBuf = make([]int32, 0, capDeq)
	g.counts = make([]atomic.Int32, n)
	g.corrupt = make([]bool, n)
	g.flushed = make([]WorkerStats, W)

	if opt.Trace != nil && opt.TraceBase >= 0 && opt.TraceBase+W <= opt.Trace.Procs() {
		g.tr = opt.Trace
		g.trBase = opt.TraceBase
	}
	if opt.Metrics != nil && opt.MetricsRank >= 0 && opt.MetricsRank < opt.Metrics.Procs() {
		g.reg = opt.Metrics
		g.mTiles = opt.Metrics.Counter(metrics.TaskTiles)
		g.mSteals = opt.Metrics.Counter(metrics.TaskSteals)
		g.mParks = opt.Metrics.Counter(metrics.TaskParks)
		g.mUnpark = opt.Metrics.Counter(metrics.TaskUnparks)
		opt.Metrics.Gauge(metrics.TaskSpanWidth).Set(float64(g.tileW[g.loop.Perm[g.rank-1]]))
	}

	for i := 1; i < W; i++ {
		g.wg.Add(1)
		go g.workerLoop(i)
	}
}

// decompose chooses tile widths, proves the tile DAG acyclic (collapsing
// dimensions that defeat the proof), enumerates tile regions, and builds
// the adjacency lists and initial in-degrees.
func (g *Graph) decompose(sizes []int, udvs []dep.UDV, tileW []int, W int) {
	rank := g.rank
	// reach: the farthest (in iteration steps) any dependence spans per
	// dimension; a tile at least this wide keeps every edge adjacent.
	reach := make([]int, rank)
	for _, u := range udvs {
		if u.Zero() {
			continue
		}
		for d := 0; d < rank; d++ {
			dist := u.Dist[d]
			if dist < 0 {
				dist = -dist
			}
			stride := g.region.Dim(d).Stride
			if r := (dist + stride - 1) / stride; r > reach[d] {
				reach[d] = r
			}
		}
	}
	tw := make([]int, rank)
	shape := make([]int, rank)
	// setWidth fixes dimension d's tile width: the caller's TileW entry
	// when set, else the dimension cut into about `chunks` pieces — tiles
	// below 8 points per side would defeat the span engine's dispatch
	// amortization — and in both cases never below the dependence reach.
	setWidth := func(d, chunks int) {
		w := 0
		if d < len(tileW) {
			w = tileW[d]
		}
		if w <= 0 {
			w = (sizes[d] + chunks - 1) / chunks
			if w < 8 {
				w = 8
			}
		}
		if w < reach[d] {
			w = reach[d]
		}
		if w < 1 {
			w = 1
		}
		if w > sizes[d] {
			w = sizes[d]
		}
		tw[d] = w
		shape[d] = (sizes[d] + w - 1) / w
	}
	// About 4*W chunks give the pool slack to balance along a dimension a
	// dependence crosses (the wavefront must be cut for tiles to pipeline)
	// and along a dependence-free outer dimension (cutting it costs
	// nothing: a tile still walks whole rows). The span dimension — the
	// loop's innermost, the one the kernel walks contiguously — is
	// different when no dependence crosses it: every cut shortens every
	// row-span of every tile and buys only parallelism, so it is cut only
	// as far as the pool still lacks independent chains after the other
	// free dimensions have supplied theirs.
	span := g.loop.Perm[rank-1]
	free := 1 // independent chains the dependence-free non-span dimensions supply
	for d := 0; d < rank; d++ {
		if d == span {
			continue
		}
		setWidth(d, 4*W)
		if reach[d] == 0 {
			free *= shape[d]
		}
	}
	chunks := 4 * W
	if reach[span] == 0 {
		chunks = (W + free - 1) / free
	}
	setWidth(span, chunks)

	// Acyclicity: the offset vectors are tile-space dependence distances,
	// so if the loop derivation finds a nest satisfying them, the DAG
	// embeds in that linear order. When it cannot, collapse a dimension
	// whose offsets carry both signs (the cycle source) and retry; at
	// worst every dimension collapses and the DAG is a single tile.
	var offs [][]int
	for {
		offs = tileOffsets(udvs, shape)
		if len(offs) == 0 {
			break
		}
		ou := make([]dep.UDV, len(offs))
		for i, e := range offs {
			ou[i] = dep.UDV{Dist: append(grid.Direction(nil), e...)}
		}
		if _, err := dep.DerivePreferred(rank, ou, dep.Preference{DimOrder: g.loop.Perm, PreferLow: true}); err == nil {
			break
		}
		d := collapseDim(offs, shape)
		shape[d] = 1
		tw[d] = sizes[d]
	}
	g.shape = shape
	g.tileW = tw
	g.offsets = offs

	// Enumerate tiles row-major over shape.
	n := 1
	g.strides = make([]int, rank)
	for d := rank - 1; d >= 0; d-- {
		g.strides[d] = n
		n *= shape[d]
	}
	g.tiles = make([]grid.Region, n)
	dims := make([]grid.Range, rank)
	idx := make([]int, rank)
	for i := 0; i < n; i++ {
		rem := i
		for d := 0; d < rank; d++ {
			idx[d] = rem / g.strides[d]
			rem %= g.strides[d]
			r := g.region.Dim(d)
			lo := idx[d] * tw[d]
			hi := lo + tw[d]
			if hi > sizes[d] {
				hi = sizes[d]
			}
			dims[d] = grid.Range{
				Lo:     r.Lo + lo*r.Stride,
				Hi:     r.Lo + (hi-1)*r.Stride,
				Stride: r.Stride,
			}
		}
		g.tiles[i] = grid.MustRegion(dims...)
	}

	// Adjacency: tile τ depends on τ-e for every offset e that stays in
	// bounds. Offsets are deduplicated, so each (pred, succ) pair appears
	// once; lists are index-sorted for a deterministic single-worker
	// schedule.
	g.preds = make([][]int32, n)
	g.succs = make([][]int32, n)
	g.initCnt = make([]int32, n)
	for i := 0; i < n; i++ {
		rem := i
		for d := 0; d < rank; d++ {
			idx[d] = rem / g.strides[d]
			rem %= g.strides[d]
		}
		for _, e := range offs {
			p := 0
			ok := true
			for d := 0; d < rank; d++ {
				s := idx[d] - e[d]
				if s < 0 || s >= shape[d] {
					ok = false
					break
				}
				p += s * g.strides[d]
			}
			if !ok {
				continue
			}
			g.preds[i] = append(g.preds[i], int32(p))
			g.succs[p] = append(g.succs[p], int32(i))
		}
		g.initCnt[i] = int32(len(g.preds[i]))
	}
	for i := range g.succs {
		sortInt32(g.succs[i])
		sortInt32(g.preds[i])
	}
}

// tileOffsets derives the tile-space dependence offsets: per non-zero UDV,
// the cross product over dimensions of {0, sign(dist)} minus the zero
// vector, with components zeroed where only one tile exists. Deduplicated
// across UDVs on the offset's sign vector packed base 3 (a session rebuilds
// every block's graph on every Run, so the build stays off the formatter).
func tileOffsets(udvs []dep.UDV, shape []int) [][]int {
	rank := len(shape)
	var seen []int
	var out [][]int
	sign, cand := make([]int, rank), make([]int, rank)
	var nz []int
	for _, u := range udvs {
		if u.Zero() {
			continue
		}
		nz = nz[:0]
		for d := 0; d < rank; d++ {
			s := 0
			if shape[d] > 1 {
				if u.Dist[d] > 0 {
					s = 1
				} else if u.Dist[d] < 0 {
					s = -1
				}
			}
			sign[d] = s
			if s != 0 {
				nz = append(nz, d)
			}
		}
		if len(nz) == 0 {
			continue
		}
		for mask := 1; mask < 1<<len(nz); mask++ {
			clear(cand)
			for i, d := range nz {
				if mask&(1<<i) != 0 {
					cand[d] = sign[d]
				}
			}
			key := 0
			for _, c := range cand {
				key = key*3 + c + 1
			}
			if !slices.Contains(seen, key) {
				seen = append(seen, key)
				out = append(out, append([]int(nil), cand...))
			}
		}
	}
	return out
}

// collapseDim picks the dimension to collapse when the offsets admit no
// loop nest: a dimension carrying both offset signs (the cycle source) with
// the smallest tile count, falling back to any splittable dimension touched
// by an offset.
func collapseDim(offs [][]int, shape []int) int {
	rank := len(shape)
	best, bestShape := -1, int(^uint(0)>>1)
	for d := 0; d < rank; d++ {
		if shape[d] <= 1 {
			continue
		}
		pos, neg := false, false
		for _, e := range offs {
			if e[d] > 0 {
				pos = true
			}
			if e[d] < 0 {
				neg = true
			}
		}
		if pos && neg && shape[d] < bestShape {
			best, bestShape = d, shape[d]
		}
	}
	if best >= 0 {
		return best
	}
	for d := 0; d < rank; d++ {
		if shape[d] <= 1 {
			continue
		}
		for _, e := range offs {
			if e[d] != 0 {
				return d
			}
		}
	}
	// Unreachable: offsets are zeroed in collapsed dimensions, so a
	// non-empty offset set implies a splittable dimension above.
	panic("taskdag: no dimension to collapse")
}

func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// SetRunner installs the tile body: fn(worker, tile) executes one tile's
// region on the given worker index. The runner must be safe for concurrent
// calls on distinct workers; it is installed once so repeated Runs allocate
// nothing.
func (g *Graph) SetRunner(fn func(worker int, tile grid.Region)) { g.runner = fn }

// Runner returns the installed tile runner (nil before SetRunner). Test
// instrumentation wraps it to gate or delay specific tiles.
func (g *Graph) Runner() func(worker int, tile grid.Region) { return g.runner }

// Tiles returns the tile count.
func (g *Graph) Tiles() int { return len(g.tiles) }

// Workers returns the pool size (including the caller).
func (g *Graph) Workers() int { return len(g.workers) }

// Shape returns the per-dimension tile counts.
func (g *Graph) Shape() []int { return append([]int(nil), g.shape...) }

// Offsets returns the tile-space dependence offsets (tile τ depends on
// τ-e for each offset e).
func (g *Graph) Offsets() [][]int {
	out := make([][]int, len(g.offsets))
	for i, e := range g.offsets {
		out[i] = append([]int(nil), e...)
	}
	return out
}

// TileRegion returns tile t's region.
func (g *Graph) TileRegion(t int) grid.Region { return g.tiles[t] }

// Preds returns tile t's predecessor indices.
func (g *Graph) Preds(t int) []int32 { return append([]int32(nil), g.preds[t]...) }

// WorkerStats returns each worker's cumulative counters. Call only with no
// Run in flight.
func (g *Graph) WorkerStats() []WorkerStats {
	out := make([]WorkerStats, len(g.workers))
	for i, w := range g.workers {
		out[i] = w.stats
	}
	return out
}

// CorruptCounter under-counts tile t's dependency counter by one on every
// subsequent Run, releasing the tile before its last predecessor completes.
// It exists for the intentional-break battery: a corrupted schedule must be
// caught by the differential oracle or the trace validator. Call only with
// no Run in flight.
func (g *Graph) CorruptCounter(t int) error {
	if t < 0 || t >= len(g.tiles) {
		return fmt.Errorf("taskdag: tile %d out of range [0, %d)", t, len(g.tiles))
	}
	g.corrupt[t] = true
	return nil
}

// Run executes every tile once, respecting the DAG, with the caller acting
// as worker 0. It returns when all tiles completed and every pool worker
// has retired from the run. Repeated Runs reuse all state and allocate
// nothing.
func (g *Graph) Run() {
	if g.runner == nil && g.runnerSub == nil {
		panic("taskdag: Run before SetRunner")
	}
	g.wave = g.waveBase + (g.runSeq & 0xffff)
	g.runSeq++
	n := len(g.tiles)
	if n == 0 {
		return
	}
	seeds := g.seedBuf[:0]
	for i := 0; i < n; i++ {
		c := g.initCnt[i]
		if g.corrupt[i] && c > 0 {
			c--
		}
		g.counts[i].Store(c)
		if c == 0 {
			seeds = append(seeds, int32(i))
		}
	}
	g.seedBuf = seeds
	g.remaining.Store(int64(n))
	g.done.Store(false)
	// Seeds round-robin across deques, pushed in reverse so each LIFO
	// owner pops its share in DAG order.
	W := len(g.workers)
	for i := len(seeds) - 1; i >= 0; i-- {
		w := g.workers[i%W]
		w.mu.Lock()
		w.pushTailLocked(seeds[i])
		w.mu.Unlock()
	}
	g.ready.Store(int64(len(seeds)))
	g.mu.Lock()
	g.gen++
	g.exited = 0
	g.cond.Broadcast()
	g.mu.Unlock()
	g.runWorker(g.workers[0])
	if W > 1 {
		g.mu.Lock()
		for g.exited < W-1 {
			g.cond.Wait()
		}
		g.mu.Unlock()
	}
	g.flushMetrics()
}

// Stop retires the pool's goroutines. The graph cannot Run afterwards.
// Idempotent; must not overlap a Run.
func (g *Graph) Stop() {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return
	}
	g.stopped = true
	g.cond.Broadcast()
	g.mu.Unlock()
	g.wg.Wait()
}

// workerLoop is a spawned worker's life: wait for a run generation,
// work it dry, check out, repeat until Stop.
func (g *Graph) workerLoop(id int) {
	defer g.wg.Done()
	w := g.workers[id]
	var last int64
	for {
		g.mu.Lock()
		for g.gen == last && !g.stopped {
			g.cond.Wait()
		}
		if g.stopped {
			g.mu.Unlock()
			return
		}
		last = g.gen
		g.mu.Unlock()
		g.runWorker(w)
		g.mu.Lock()
		g.exited++
		if g.exited == len(g.workers)-1 {
			g.cond.Broadcast()
		}
		g.mu.Unlock()
	}
}

// runWorker drains the DAG from one worker's perspective: pop own work,
// steal, park, until the run's last tile retires.
func (g *Graph) runWorker(w *worker) {
	for {
		t, ok := g.findWork(w)
		if ok {
			g.execTile(w, t)
			continue
		}
		if g.done.Load() {
			return
		}
		g.park(w)
		if g.done.Load() {
			return
		}
	}
}

// findWork claims one tile: the worker's own tail first (LIFO), then a
// steal-half pass over the other deques. Victim order rotates from the
// worker's successor, or is drawn from the seeded generator when the
// steal-order fuzz hook is armed.
func (g *Graph) findWork(w *worker) (int32, bool) {
	w.mu.Lock()
	if w.n > 0 {
		t := w.popTailLocked()
		w.mu.Unlock()
		g.ready.Add(-1)
		return t, true
	}
	w.mu.Unlock()
	W := len(g.workers)
	if W == 1 {
		return 0, false
	}
	start := w.id + 1
	if w.seed != 0 {
		start = w.id + 1 + int(w.nextRand()%uint64(W-1))
	}
	for i := 0; i < W; i++ {
		v := g.workers[(start+i)%W]
		if v == w {
			continue
		}
		k := g.steal(w, v)
		if k == 0 {
			continue
		}
		w.stats.Steals++
		t := w.stealBuf[0]
		if k > 1 {
			// Keep the oldest stolen tile for execution; re-queue the rest
			// so the next own pop continues in age order.
			w.mu.Lock()
			for j := k - 1; j >= 1; j-- {
				w.pushTailLocked(w.stealBuf[j])
			}
			w.mu.Unlock()
		}
		g.ready.Add(-1)
		return t, true
	}
	return 0, false
}

// steal takes ceil(n/2) tiles from the victim's head into the thief's
// steal buffer (or a single tile when the fuzz hook flips a coin),
// returning how many were taken.
func (g *Graph) steal(w, v *worker) int {
	v.mu.Lock()
	if v.n == 0 {
		v.mu.Unlock()
		return 0
	}
	k := (v.n + 1) / 2
	if w.seed != 0 && w.nextRand()&1 == 0 {
		k = 1
	}
	for i := 0; i < k; i++ {
		w.stealBuf[i] = v.deq[v.head]
		v.head++
		if v.head == len(v.deq) {
			v.head = 0
		}
	}
	v.n -= k
	v.mu.Unlock()
	return k
}

// park blocks the worker until the ready count transitions from zero or
// the run completes. The idle mirror lets pushReady skip the mutex when
// nobody is parked; the seq-cst ordering of ready.Add before the mirror
// read (push side) against the mirror write before the ready read (park
// side) guarantees at least one side observes the other.
func (g *Graph) park(w *worker) {
	g.mu.Lock()
	if g.ready.Load() > 0 || g.done.Load() {
		g.mu.Unlock()
		return
	}
	g.idle++
	g.idleCount.Store(int32(g.idle))
	w.stats.Parks++
	for g.ready.Load() == 0 && !g.done.Load() {
		g.cond.Wait()
	}
	w.stats.Unparks++
	g.idle--
	g.idleCount.Store(int32(g.idle))
	g.mu.Unlock()
}

// execTile records the dependence edges and the tile span, runs the tile,
// releases successors whose counters hit zero, and retires the run when
// the last tile completes. The tile span's End timestamp is taken before
// any successor is released, so a validated trace orders predecessor
// completion before successor start.
func (g *Graph) execTile(w *worker, t int32) {
	var t0 int64
	ring := 0
	if g.tr != nil {
		ring = g.trBase + w.id
		t0 = g.tr.Now()
		for _, p := range g.preds[t] {
			ev := trace.Ev(trace.KindTaskDep, ring, t0, t0)
			ev.Wave, ev.Tile, ev.Seq = g.wave, int(t), int(p)
			g.tr.Record(ev)
		}
	}
	if g.runnerSub != nil {
		g.runnerSub(w.id, int(g.subOf[t]), g.tiles[t])
	} else {
		g.runner(w.id, g.tiles[t])
	}
	if g.tr != nil {
		ev := trace.Ev(trace.KindTaskTile, ring, t0, g.tr.Now())
		ev.Wave, ev.Tile, ev.Elems = g.wave, int(t), g.tiles[t].Size()
		g.tr.Record(ev)
	}
	w.stats.Tiles++
	succs := g.succs[t]
	for i := len(succs) - 1; i >= 0; i-- {
		s := succs[i]
		if g.counts[s].Add(-1) == 0 {
			g.pushReady(w, s)
		}
	}
	if g.remaining.Add(-1) == 0 {
		g.done.Store(true)
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	}
}

// pushReady queues a released tile on the completing worker's own deque
// and wakes a parked worker if any.
func (g *Graph) pushReady(w *worker, t int32) {
	w.mu.Lock()
	w.pushTailLocked(t)
	w.mu.Unlock()
	g.ready.Add(1)
	if g.idleCount.Load() > 0 {
		g.mu.Lock()
		if g.idle > 0 {
			g.cond.Signal()
		}
		g.mu.Unlock()
	}
}

// flushMetrics adds the per-worker deltas since the last flush into the
// registry's MetricsRank shard.
func (g *Graph) flushMetrics() {
	if g.reg == nil {
		return
	}
	for i, w := range g.workers {
		d := w.stats
		f := &g.flushed[i]
		g.mTiles.Add(g.metricsRank, d.Tiles-f.Tiles)
		g.mSteals.Add(g.metricsRank, d.Steals-f.Steals)
		g.mParks.Add(g.metricsRank, d.Parks-f.Parks)
		g.mUnpark.Add(g.metricsRank, d.Unparks-f.Unparks)
		*f = d
	}
}
