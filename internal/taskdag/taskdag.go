// Package taskdag executes one scan block's iteration space as a dynamic
// task DAG on real OS threads, turning the simulator's modeled parallelism
// into wall-clock multicore speedup.
//
// The grid is decomposed into rectangular 2D/3D tiles. Each tile carries a
// dependency counter initialized to its in-degree in the tile DAG, whose
// edges are derived from the same unconstrained distance vectors (UDVs) the
// serial loop derivation uses: a UDV with distance d connects an iteration
// p to its source p - d, so with tile widths of at least the dependence
// reach per dimension, every cross-tile dependence lands in an adjacent tile
// and the edge set is the per-UDV cross product of {0, sign(d_k)} offsets.
// Acyclicity of the resulting DAG is proved by running the loop derivation
// itself over the offset vectors — if a legal loop nest orders the tile
// space, the DAG embeds in a linear order — and dimensions that defeat the
// derivation are collapsed to a single tile.
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
// Ready tiles wait on one LIFO stack under the pool's mutex — the same
// mutex whose condition variable parks and wakes the workers: the caller
// participates as worker 0 and the Pool's Workers-1 goroutines are spawned
// by its first run and parked between runs, whichever graph runs next. A
// graph is cut once and re-cut in place for a new region (Recut), so a
// caller that keeps a pool and its graphs starts no goroutine and builds
// no graph per run. A worker's whole scheduling step is one
// critical section per tile: count the finished tile's successors down,
// push the ones that reach zero, pop the next tile, signal one parked
// worker when it leaves work behind, and park while the stack is empty and
// tiles are still in flight. A tile is 10 µs of kernel or more, the step
// tens of nanoseconds, so nothing per worker sits behind it. Everything —
// tiles, adjacency, counters, the stack — is preallocated at build, so a
// steady-state Run allocates nothing and the zero-alloc contract of the
// static pipeline survives.
//
// Per-worker trace events (KindTaskTile, KindTaskDep) let trace.Validate
// check the wavefront safety of the dynamic schedule post-hoc: every tile's
// predecessors completed before it started, whichever worker popped it.
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
	// Pool, when non-nil, is the pool the graph runs on, which outlives it;
	// nil starts one of Workers that the graph's Stop stops.
	Pool *Pool
	// Workers is the pool size including the calling goroutine; <= 0
	// selects runtime.GOMAXPROCS(0). Ignored with a Pool.
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
	// OrderSeed, when non-zero, makes a worker pop a pseudo-random ready
	// tile instead of the top of the stack (the schedule-order fuzz hook):
	// every order the seeds produce is a legal one. Zero keeps LIFO.
	OrderSeed int64
}

// WorkerStats is one worker's cumulative scheduling counters.
type WorkerStats struct {
	// Tiles counts tiles this worker executed.
	Tiles int64
	// Steals counts tiles this worker executed that another worker's
	// completion released: the work that moved between workers.
	Steals int64
	// Parks and Unparks count blocking waits on the pool's condition
	// variable and the wakeups that ended them.
	Parks, Unparks int64
}

// Spec describes one independent sub-graph of a merged graph: a region with
// its own derived loop and dependence vectors. Specs must be mutually
// independent (no tile of one spec may depend on a tile of another) — the
// caller guarantees this; NewMulti adds no cross-spec edges.
type Spec struct {
	Region grid.Region
	Loop   dep.LoopSpec
	UDVs   []dep.UDV
}

// graphSeq numbers graphs process-wide; it keys the Wave identity of trace
// events so concurrent graphs (and the static pipeline's small wave
// numbers) never collide in one recorder.
var graphSeq atomic.Int64

// Pool is the Workers-1 goroutines that run graphs beside the caller, with
// their park, wake and exit hand-shake. It is started lazily — the first
// Run of a graph on it spawns the goroutines — and Stop retires them; a
// later Run starts them again. Graphs sharing a pool must not Run
// concurrently. A Pool that becomes unreachable is stopped by the garbage
// collector: the goroutines hold only its state, never the handle, so an
// owner dropped without Stop leaks none.
type Pool struct{ *pool }

type pool struct {
	workers int
	wg      sync.WaitGroup
	// mu guards the fields below and, while a graph runs, that graph's
	// scheduling state; cond parks and wakes workers on it.
	mu     sync.Mutex
	cond   sync.Cond
	live   bool   // the spawned goroutines are running
	job    *Graph // the graph of the run in flight; nil between runs
	gen    int64  // run generation
	exited int    // spawned workers done with the current run
}

// NewPool returns a pool of workers, the caller included (<= 0 selects
// runtime.GOMAXPROCS(0)). It spawns nothing until a graph runs on it.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{&pool{workers: workers}}
	p.cond.L = &p.mu
	if workers > 1 {
		runtime.SetFinalizer(p, (*Pool).Stop)
	}
	return p
}

// Workers returns the pool size, the caller included.
func (p *Pool) Workers() int { return p.workers }

// Stop retires the pool's goroutines and waits for them. Idempotent; must
// not overlap a Run on the pool. A later Run starts them again.
func (p *Pool) Stop() {
	p.mu.Lock()
	p.live = false
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// start spawns the workers if they are not running. Called with mu held.
func (p *pool) start() {
	if p.live || p.workers == 1 {
		return
	}
	p.live = true
	for i := 1; i < p.workers; i++ {
		p.wg.Add(1)
		go p.loop(i, p.gen)
	}
}

// loop is a spawned worker's life: wait for a run generation, work its
// graph dry, check out, repeat until Stop.
func (p *pool) loop(id int, last int64) {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for p.gen == last && p.live {
			p.cond.Wait()
		}
		if !p.live {
			p.mu.Unlock()
			return
		}
		last = p.gen
		g := p.job
		p.mu.Unlock()
		g.work(p, id)
		p.mu.Lock()
		p.exited++
		if p.exited == p.workers-1 {
			p.cond.Broadcast()
		}
		p.mu.Unlock()
	}
}

// Graph is the tiled dependence DAG of one or more regions, run on a
// worker pool. Build one with New or NewMulti, attach a tile body with
// SetRunner or SetRunnerSub, execute with Run (repeatable), cut it again
// over other regions with Recut, and retire it with Stop, which also stops
// a pool the graph started itself. Run, Recut and Stop must not be called
// concurrently; WorkerStats and CorruptCounter may only be called with no
// Run in flight.
type Graph struct {
	specs []Spec
	fixW  []int // Options.TileW, for Recut

	// Geometry of the first spec (Shape, Offsets, the span-width gauge).
	shape   []int // tiles per dimension
	tileW   []int // tile width per dimension, in iteration counts
	offsets [][]int

	tiles   []grid.Region
	bounds  []grid.Range // the tiles' ranges, rank per tile
	subOf   []int32      // owning spec per tile; nil with one spec
	preds   [][]int32
	succs   [][]int32
	initCnt []int32
	corrupt []bool

	runner    func(worker int, tile grid.Region)
	runnerSub func(worker, sub int, tile grid.Region)
	pool      *Pool
	owned     bool // the graph started pool; Stop stops it

	// The scheduling state, guarded by the pool's mutex.
	counts  []int32 // unmet dependences per tile
	stack   []int32 // ready tiles; the top is the last element
	by      []int32 // the worker whose completion released each tile, -1 for a seed
	pending int     // tiles of the current run not yet completed
	parked  int     // workers waiting for a ready tile
	rng     uint64  // OrderSeed's xorshift64 state; 0 pops the top
	stopped bool
	stats   []WorkerStats

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

// New builds the tile DAG of one region: NewMulti of a single spec.
func New(region grid.Region, loop dep.LoopSpec, udvs []dep.UDV, opt Options) (*Graph, error) {
	return NewMulti([]Spec{{Region: region, Loop: loop, UDVs: udvs}}, opt)
}

// NewMulti builds one Graph whose tile set is the union of every spec's
// tile DAG — each under its own derived loop and UDVs; a loop spec orders
// execution within a tile only, across tiles the DAG rules — on
// Options.Pool, or on a pool of its own. Merging is how counter-propagating
// wavefronts (multi-octant sweeps) share workers: each octant keeps its own
// internal dependence structure, and the one ready stack interleaves tiles
// from all of them, so a worker starved by one octant's ramp-down picks up
// another octant's ramp-up.
//
// Tiles carry their spec index; attach the body with SetRunnerSub (or
// SetRunner when there is one spec). The Shape and Offsets accessors
// describe only the first spec (per-spec structure is available through
// SubOf/TileRegion).
func NewMulti(specs []Spec, opt Options) (*Graph, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("taskdag: NewMulti with no specs")
	}
	for si, sp := range specs {
		if err := checkSpec(si, sp.Region, sp); err != nil {
			return nil, err
		}
		for _, u := range sp.UDVs {
			if len(u.Dist) != sp.Region.Rank() {
				return nil, fmt.Errorf("taskdag: spec %d UDV %v has rank %d, want %d", si, u, len(u.Dist), sp.Region.Rank())
			}
		}
	}
	g := &Graph{specs: slices.Clone(specs), fixW: slices.Clone(opt.TileW), pool: opt.Pool, metricsRank: opt.MetricsRank}
	if g.pool == nil {
		g.pool, g.owned = NewPool(opt.Workers), true
	}
	W := g.pool.workers
	g.waveBase = int(graphSeq.Add(1)) << 16
	if opt.OrderSeed != 0 {
		g.rng = uint64(opt.OrderSeed)*0x9e3779b97f4a7c15 | 1
	}
	g.stats = make([]WorkerStats, W)
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
		g.flushed = make([]WorkerStats, W)
	}
	g.cut()
	return g, nil
}

// checkSpec refuses a region that spec sp's loop cannot walk.
func checkSpec(si int, region grid.Region, sp Spec) error {
	if region.Rank() == 0 {
		return fmt.Errorf("taskdag: spec %d has a rank-0 region", si)
	}
	if len(sp.Loop.Perm) != region.Rank() {
		return fmt.Errorf("taskdag: spec %d loop spec has rank %d, region has rank %d", si, len(sp.Loop.Perm), region.Rank())
	}
	return nil
}

// Recut cuts the graph again over regions, one per spec, each keeping its
// loop and dependences; the runner, the pool and the counters stay. The
// tile and adjacency slices are reused where they fit, and regions equal
// to the present ones leave the graph as it is. Tile indices change, so a
// CorruptCounter mark is dropped. Call only with no Run in flight.
func (g *Graph) Recut(regions []grid.Region) error {
	if len(regions) != len(g.specs) {
		return fmt.Errorf("taskdag: Recut with %d regions, graph has %d specs", len(regions), len(g.specs))
	}
	same := true
	for si, r := range regions {
		if err := checkSpec(si, r, g.specs[si]); err != nil {
			return err
		}
		same = same && r.Equal(g.specs[si].Region)
	}
	if same {
		return nil
	}
	for si, r := range regions {
		g.specs[si].Region = r
	}
	g.cut()
	return nil
}

// cut decomposes every spec into the graph's tiles, edges and counts.
func (g *Graph) cut() {
	g.tiles, g.bounds, g.subOf, g.initCnt = g.tiles[:0], g.bounds[:0], g.subOf[:0], g.initCnt[:0]
	g.preds, g.succs = g.preds[:0], g.succs[:0]
	g.shape = nil
	for si := range g.specs {
		g.decompose(si)
	}
	first := &g.specs[0]
	if g.shape == nil { // the first spec's region is empty
		g.shape = make([]int, first.Region.Rank())
		g.tileW = make([]int, first.Region.Rank())
	}
	n := len(g.tiles)
	g.counts = resize(g.counts, n)
	g.by = resize(g.by, n)
	g.corrupt = resize(g.corrupt, n)
	clear(g.corrupt)
	g.stack = resize(g.stack, n)[:0]
	if g.reg != nil {
		span := first.Loop.Perm[len(first.Loop.Perm)-1]
		g.reg.Gauge(metrics.TaskSpanWidth).Set(float64(g.tileW[span]))
	}
}

// resize returns s at length n, its first len(s) elements kept, reusing its
// array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		s = slices.Grow(s, n-len(s))
	}
	return s[:n]
}

// extend lengthens lists by n empty lists, reusing the arrays of lists a
// previous cut left beyond its length.
func extend(lists [][]int32, n int) [][]int32 {
	old := len(lists)
	lists = resize(lists, old+n)
	for i := old; i < old+n; i++ {
		lists[i] = lists[i][:0]
	}
	return lists
}

// decompose chooses spec si's tile widths, proves its tile DAG acyclic
// (collapsing dimensions that defeat the proof), and appends its tile
// regions, adjacency lists and initial in-degrees to the graph's. An empty
// region contributes no tiles.
func (g *Graph) decompose(si int) {
	tileW, W := g.fixW, g.pool.workers
	region, loop, udvs := g.specs[si].Region, g.specs[si].Loop, g.specs[si].UDVs
	rank := region.Rank()
	// One array holds the per-dimension tables (tw and shape outlive the
	// call as the first spec's geometry).
	ints := make([]int, 6*rank)
	table := func(i int) []int { return ints[i*rank : (i+1)*rank : (i+1)*rank] }
	sizes, reach, tw, shape, strides, idx := table(0), table(1), table(2), table(3), table(4), table(5)
	for d := range sizes {
		if sizes[d] = region.Dim(d).Size(); sizes[d] == 0 {
			return
		}
	}
	// reach: the farthest (in iteration steps) any dependence spans per
	// dimension; a tile at least this wide keeps every edge adjacent.
	for _, u := range udvs {
		if u.Zero() {
			continue
		}
		for d := 0; d < rank; d++ {
			dist := u.Dist[d]
			if dist < 0 {
				dist = -dist
			}
			stride := region.Dim(d).Stride
			if r := (dist + stride - 1) / stride; r > reach[d] {
				reach[d] = r
			}
		}
	}
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
	span := loop.Perm[rank-1]
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
		if _, err := dep.DerivePreferred(rank, ou, dep.Preference{DimOrder: loop.Perm, PreferLow: true}); err == nil {
			break
		}
		d := collapseDim(offs, shape)
		shape[d] = 1
		tw[d] = sizes[d]
	}
	if si == 0 {
		g.shape, g.tileW, g.offsets = shape, tw, offs
	}

	// Enumerate tiles row-major over shape, after the tiles of the specs
	// before this one.
	n := 1
	for d := rank - 1; d >= 0; d-- {
		strides[d] = n
		n *= shape[d]
	}
	base := len(g.tiles)
	g.tiles = resize(g.tiles, base+n)
	g.preds = extend(g.preds, n)
	g.succs = extend(g.succs, n)
	g.initCnt = resize(g.initCnt, base+n)
	if len(g.specs) > 1 {
		for i := 0; i < n; i++ {
			g.subOf = append(g.subOf, int32(si))
		}
	}
	// The tiles' ranges share one array, reused by the next cut.
	g.bounds = slices.Grow(g.bounds, n*rank)
	for i := 0; i < n; i++ {
		k := len(g.bounds)
		g.bounds = g.bounds[:k+rank]
		dims := g.bounds[k : k+rank : k+rank]
		rem := i
		for d := 0; d < rank; d++ {
			idx[d] = rem / strides[d]
			rem %= strides[d]
			r := region.Dim(d)
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
		g.tiles[base+i] = grid.RegionOver(dims)

		// Adjacency: tile τ depends on τ-e for every offset e that stays
		// in bounds. Offsets are deduplicated, so each (pred, succ) pair
		// appears once; lists are index-sorted for a deterministic
		// single-worker schedule.
		for _, e := range offs {
			p := base
			ok := true
			for d := 0; d < rank; d++ {
				s := idx[d] - e[d]
				if s < 0 || s >= shape[d] {
					ok = false
					break
				}
				p += s * strides[d]
			}
			if !ok {
				continue
			}
			g.preds[base+i] = append(g.preds[base+i], int32(p))
			g.succs[p] = append(g.succs[p], int32(base+i))
		}
		g.initCnt[base+i] = int32(len(g.preds[base+i]))
	}
	for i := base; i < base+n; i++ {
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

// SetRunnerSub installs the tile body of a merged graph: fn(worker, sub,
// tile) executes one tile of spec index sub. It takes precedence over
// SetRunner's and is under the same contract.
func (g *Graph) SetRunnerSub(fn func(worker, sub int, tile grid.Region)) { g.runnerSub = fn }

// Runner returns the installed tile runner (nil before SetRunner). Test
// instrumentation wraps it to gate or delay specific tiles.
func (g *Graph) Runner() func(worker int, tile grid.Region) { return g.runner }

// Tiles returns the tile count.
func (g *Graph) Tiles() int { return len(g.tiles) }

// Workers returns the pool size (including the caller).
func (g *Graph) Workers() int { return g.pool.workers }

// Subs returns the number of specs the graph merged (1 for New graphs).
func (g *Graph) Subs() int { return len(g.specs) }

// SubOf returns the spec index owning tile t.
func (g *Graph) SubOf(t int) int {
	if g.subOf == nil {
		return 0
	}
	return int(g.subOf[t])
}

// Loop returns spec sub's loop, the order of execution within its tiles.
func (g *Graph) Loop(sub int) dep.LoopSpec { return g.specs[sub].Loop }

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
func (g *Graph) WorkerStats() []WorkerStats { return slices.Clone(g.stats) }

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
// as worker 0 and the pool's goroutines — started here if they are not
// running — as the rest. It returns when all tiles completed and every
// pool worker has retired from the run. Repeated Runs reuse all state and
// allocate nothing. Run before SetRunner and Run after Stop are bugs in the
// caller and panic.
func (g *Graph) Run() {
	if g.runner == nil && g.runnerSub == nil {
		panic("taskdag: Run before SetRunner")
	}
	p := g.pool.pool
	p.mu.Lock()
	if g.stopped {
		p.mu.Unlock()
		panic("taskdag: Run after Stop")
	}
	g.wave = g.waveBase + (g.runSeq & 0xffff)
	g.runSeq++
	n := len(g.tiles)
	if n == 0 {
		p.mu.Unlock()
		return
	}
	// Seeds are pushed in reverse so the stack pops them in DAG order.
	g.stack = g.stack[:0]
	for i := n - 1; i >= 0; i-- {
		c := g.initCnt[i]
		if g.corrupt[i] && c > 0 {
			c--
		}
		g.counts[i] = c
		if c == 0 {
			g.by[i] = -1
			g.stack = append(g.stack, int32(i))
		}
	}
	g.pending = n
	p.start()
	p.job = g
	p.gen++
	p.exited = 0
	p.cond.Broadcast()
	p.mu.Unlock()
	g.work(p, 0)
	p.mu.Lock()
	for p.exited < p.workers-1 {
		p.cond.Wait()
	}
	p.job = nil
	p.mu.Unlock()
	g.flushMetrics()
}

// Stop retires the graph — it cannot Run afterwards — and the pool with
// it when the graph started the pool itself. Idempotent; must not overlap
// a Run.
func (g *Graph) Stop() {
	g.pool.mu.Lock()
	g.stopped = true
	g.pool.mu.Unlock()
	if g.owned {
		g.pool.Stop()
	}
}

// work is worker w's share of one run on pool p, and the whole scheduler:
// one critical section per tile. Inside it the worker counts the successors
// of the tile it just finished down, pushes those that reach zero (lowest
// index on top, so one worker walks the DAG in index order), parks while
// the stack is empty and tiles are in flight, pops its next tile, and
// signals one parked worker when it leaves ready tiles behind. The mutex
// hand-over is also what makes a tile's body see its predecessors' writes.
// The last tile's completion wakes everyone; a worker leaves when nothing
// is ready and nothing is pending.
func (g *Graph) work(p *pool, w int) {
	st := &g.stats[w]
	p.mu.Lock()
	for {
		for len(g.stack) == 0 && g.pending > 0 {
			st.Parks++
			g.parked++
			p.cond.Wait()
			g.parked--
			st.Unparks++
		}
		if len(g.stack) == 0 {
			p.mu.Unlock()
			return
		}
		top := len(g.stack) - 1
		if g.rng != 0 {
			g.rng ^= g.rng << 13
			g.rng ^= g.rng >> 7
			g.rng ^= g.rng << 17
			i := int(g.rng % uint64(top+1))
			g.stack[i], g.stack[top] = g.stack[top], g.stack[i]
		}
		t := g.stack[top]
		g.stack = g.stack[:top]
		if by := g.by[t]; by >= 0 && by != int32(w) {
			st.Steals++
		}
		if top > 0 && g.parked > 0 {
			p.cond.Signal()
		}
		p.mu.Unlock()
		g.execTile(w, t)
		p.mu.Lock()
		st.Tiles++
		succs := g.succs[t]
		for i := len(succs) - 1; i >= 0; i-- {
			s := succs[i]
			if g.counts[s]--; g.counts[s] == 0 {
				g.by[s] = int32(w)
				g.stack = append(g.stack, s)
			}
		}
		if g.pending--; g.pending == 0 {
			p.cond.Broadcast()
		}
	}
}

// execTile records the dependence edges and the tile span and runs the
// tile. The span's End timestamp is taken before work releases any
// successor, so a validated trace orders predecessor completion before
// successor start.
func (g *Graph) execTile(w int, t int32) {
	var t0 int64
	ring := g.trBase + w
	if g.tr != nil {
		t0 = g.tr.Now()
		for _, p := range g.preds[t] {
			ev := trace.Ev(trace.KindTaskDep, ring, t0, t0)
			ev.Wave, ev.Tile, ev.Seq = g.wave, int(t), int(p)
			g.tr.Record(ev)
		}
	}
	if g.runnerSub != nil {
		g.runnerSub(w, g.SubOf(int(t)), g.tiles[t])
	} else {
		g.runner(w, g.tiles[t])
	}
	if g.tr != nil {
		ev := trace.Ev(trace.KindTaskTile, ring, t0, g.tr.Now())
		ev.Wave, ev.Tile, ev.Elems = g.wave, int(t), g.tiles[t].Size()
		g.tr.Record(ev)
	}
}

// flushMetrics adds the per-worker deltas since the last flush into the
// registry's MetricsRank shard.
func (g *Graph) flushMetrics() {
	if g.reg == nil {
		return
	}
	for i, d := range g.stats {
		f := &g.flushed[i]
		g.mTiles.Add(g.metricsRank, d.Tiles-f.Tiles)
		g.mSteals.Add(g.metricsRank, d.Steals-f.Steals)
		g.mParks.Add(g.metricsRank, d.Parks-f.Parks)
		g.mUnpark.Add(g.metricsRank, d.Unparks-f.Unparks)
		*f = d
	}
}
