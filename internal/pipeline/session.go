package pipeline

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"wavefront/internal/bufpool"
	"wavefront/internal/comm"
	"wavefront/internal/critpath"
	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/metrics"
	"wavefront/internal/scan"
	"wavefront/internal/taskdag"
	"wavefront/internal/trace"
)

// A Session runs a whole program — a sequence of scan blocks, parallel
// statements, and reductions — across a fixed decomposition, the way the
// paper's benchmarks run: each rank binds its local portions with fluff
// margins once per Run, as the session's ownership table says, and keeps
// them across blocks — a copy of a written array where a neighbour holds
// some of its rows, scattered at the start and gathered at the end; the
// caller's own rows where none does; the caller's field for an array no
// block writes — halos are re-exchanged only when stale, and wavefront
// blocks pipeline through the ranks in either travel direction. The table
// binds the caller's arrays as env holds them when the session is built.
// Run executes an SPMD body on every rank.
//
//	sess, _ := pipeline.NewSession(env, blocks, pipeline.Config{Procs: 4, Domain: all, Block: 8})
//	err := sess.Run(func(r *pipeline.Rank) error {
//	    for i := 0; i < iters; i++ {
//	        for _, b := range blocks {
//	            if err := r.Exec(b); err != nil { return err }
//	        }
//	    }
//	    return nil
//	})
type Session struct {
	cfg   Config
	genv  expr.Env
	slabs []grid.Region // index order along the wavefront dimension
	plans map[*scan.Block]*plan
	// subBlocks maps a plain multi-statement block to its per-statement
	// sub-blocks, which execute in order (plain array semantics).
	subBlocks map[*scan.Block][]*scan.Block
	halos     map[string]haloSpec // per-array union over all registered blocks
	names     []string            // sorted array names
	// written is the sorted subset of names some registered block assigns:
	// the arrays a rank binds over its slab plus halo, exchanges halos of and
	// snapshots. The rest are read-only for the whole session and a rank
	// binds the caller's field itself (see Session.rank).
	written []string
	// binds is the ownership table: what each rank holds of each array,
	// names-major per rank (see binding and bind). It is filled at arm and
	// changes only with the tile width.
	binds []binding
	// phase, where some rank copies rows another rank's slab holds, is the
	// barrier that orders every scatter of a Run before any write; nil where
	// none does. bind sets it, and every rank passes it once a Run.
	phase *comm.SyncBarrier
	// oneShot marks Run's one-block session, which executes its block
	// exactly once: the only session whose pipelined halo rows may be read
	// by reference (see haloByReference).
	oneShot bool
	// flightTrace marks cfg.Trace as the session-owned flight ring (armed
	// for the flight recorder or the /debug/critpath endpoint, reset per
	// Run); SessionStats.Summary stays nil then, as if tracing were off.
	flightTrace bool
	// workers is each rank's resolved task-DAG pool size — also the number
	// of worker trace rings per rank — and 0 under SchedStatic.
	workers int
	// topo is the session's ranks: their goroutines, links and transport,
	// built by the first Run and kept, parked, until Close; a Run that fails
	// throws it away and the next builds another.
	topo *comm.Topology
	// mu guards live, topo while a Run is in flight and nil otherwise, so
	// that Cancel, which may be called from any goroutine, reaches only the
	// Run in flight.
	mu    sync.Mutex
	live  *comm.Topology
	stats SessionStats
	// obs is the observer of the Run in flight — the one thing every
	// instrumented site emits to (nil when Config.Trace and Config.Metrics
	// are both nil) — and pm the run's counts that are not spans (nil when
	// metrics are disabled); msrv is the HTTP endpoint from MetricsAddr.
	obs  *metrics.Observer
	pm   *pipeMetrics
	msrv *metrics.Server
	// ck is the checkpoint runtime of the Run in flight (nil when
	// Config.Checkpoint is nil).
	ck *ckptRuntime
	// cpHolder publishes the last completed Run's critical-path report at
	// /debug/critpath when the session serves metrics.
	cpHolder *critpath.Holder
	// ranks is the Rank of each id, kept with what it derives beside its
	// blocks' shares (plan.ranks) and reset by every Run (Session.rank).
	ranks []Rank
}

// SessionStats summarizes a finished Run.
type SessionStats struct {
	Comm    comm.Stats
	Elapsed time.Duration
	// Summary is the per-rank busy/wait/comm breakdown with pipeline
	// fill/drain/overlap, derived from the trace; nil when Config.Trace was
	// nil.
	Summary *trace.Summary
	// Drift is the model-drift report refreshed by the run (measured α/β,
	// recomputed optimal block, predicted vs observed makespan); nil when
	// metrics were disabled.
	Drift *metrics.DriftReport
	// Pool is a snapshot of the buffer pool's cumulative totals after the
	// run; nil when Config.Pool was nil or ignored.
	Pool *bufpool.Stats
}

// NewSession validates the blocks against the decomposition and
// precomputes every block's plan. All arrays referenced by any block must
// be bound in env, and every rank's slab must intersect every block's
// region (use fewer ranks otherwise).
func NewSession(env expr.Env, blocks []*scan.Block, cfg Config) (*Session, error) {
	sess, err := newSession(env, cfg)
	if err != nil {
		return nil, err
	}
	for _, b := range blocks {
		if err := sess.register(b, nil); err != nil {
			return nil, err
		}
	}
	return sess, sess.arm()
}

// newSession validates the decomposition and splits the domain; blocks are
// added by register (or adopt), then arm readies the session to Run.
func newSession(env expr.Env, cfg Config) (*Session, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("pipeline: session needs at least 1 rank, got %d", cfg.Procs)
	}
	if cfg.WavefrontDim < 0 || cfg.WavefrontDim >= cfg.Domain.Rank() {
		return nil, fmt.Errorf("pipeline: session wavefront dimension %d out of range for rank %d",
			cfg.WavefrontDim, cfg.Domain.Rank())
	}
	if cfg.LinkCapacity < 0 {
		return nil, fmt.Errorf("pipeline: session link capacity must be >= 0, got %d", cfg.LinkCapacity)
	}
	slabs, err := grid.SplitRegion(cfg.Domain, cfg.WavefrontDim, cfg.Procs)
	if err != nil {
		return nil, err
	}
	for _, s := range slabs {
		if s.Dim(cfg.WavefrontDim).Empty() {
			return nil, fmt.Errorf("pipeline: %d ranks exceed the domain extent %d",
				cfg.Procs, cfg.Domain.Dim(cfg.WavefrontDim).Size())
		}
	}
	sess := &Session{
		cfg:       cfg,
		genv:      env,
		slabs:     slabs,
		plans:     map[*scan.Block]*plan{},
		subBlocks: map[*scan.Block][]*scan.Block{},
		halos:     map[string]haloSpec{},
	}
	if cfg.Scheduler == scan.SchedTaskDAG {
		sess.workers = cmp.Or(max(cfg.Workers, 0), runtime.GOMAXPROCS(0))
	}
	return sess, nil
}

// arm fixes the array set — every plan's halo needs folded into the
// session-wide per-array halos — and what each rank owns of each array, and
// starts what outlives a single Run: the internal flight ring and the
// metrics endpoint.
func (s *Session) arm() error {
	cfg := s.cfg
	for _, pl := range s.plans {
		for name, h := range pl.halo {
			cur, ok := s.halos[name]
			if !ok {
				cur = haloSpec{neg: make([]int, len(h.neg)), pos: make([]int, len(h.pos))}
			}
			for d := range h.neg {
				cur.neg[d] = max(cur.neg[d], h.neg[d])
				cur.pos[d] = max(cur.pos[d], h.pos[d])
			}
			s.halos[name] = cur
		}
	}
	s.names = make([]string, 0, len(s.halos))
	for name := range s.halos {
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	s.written = make([]string, 0, len(s.names))
	for _, pl := range s.plans {
		for name := range pl.written {
			s.written = append(s.written, name)
		}
	}
	slices.Sort(s.written)
	s.written = slices.Compact(s.written)
	if err := s.boxes(); err != nil {
		return err
	}
	s.bind()
	for _, pl := range s.plans {
		s.cutSchedules(pl)
	}
	s.ranks = make([]Rank, cfg.Procs)
	for id := range s.ranks {
		r := &s.ranks[id]
		*r = Rank{sess: s, id: id, locals: map[string]*field.Field{}, dirty: map[string]uint8{},
			wrote: map[string]bool{}, sendSeq: make([]int, cfg.Procs), recvSeq: make([]int, cfg.Procs),
			needs: [2][]string{make([]string, 0, len(s.written)), make([]string, 0, len(s.written))}}
		r.lenv = &forwardEnv{arrays: r.locals, parent: s.genv}
	}
	if (cfg.Postmortem.Enabled() || cfg.MetricsAddr != "") && cfg.Trace == nil {
		// Arm an internal flight ring: the flight recorder needs a trace
		// tail and /debug/critpath needs events, but the caller asked for
		// no user-facing trace (Summary stays nil).
		s.cfg.Trace = trace.New(cfg.Procs*(1+s.workers), critpath.FlightCapacity)
		s.flightTrace = true
	}
	if cfg.MetricsAddr != "" {
		if s.cfg.Metrics == nil {
			s.cfg.Metrics = metrics.New(cfg.Procs)
		}
		s.cpHolder = &critpath.Holder{}
		srv, err := metrics.Serve(cfg.MetricsAddr, s.cfg.Metrics,
			metrics.Endpoint{Path: "/debug/critpath", Handler: s.cpHolder},
			metrics.Endpoint{Path: "/debug/bundle", Handler: cfg.Postmortem})
		if err != nil {
			return err
		}
		s.msrv = srv
	}
	return nil
}

// Metrics returns the session's registry (nil when metrics are disabled).
func (s *Session) Metrics() *metrics.Registry { return s.cfg.Metrics }

// MetricsAddr returns the bound address of the metrics endpoint, or ""
// when Config.MetricsAddr was empty.
func (s *Session) MetricsAddr() string {
	if s.msrv == nil {
		return ""
	}
	return s.msrv.Addr()
}

// Close stops the ranks' goroutines and task-DAG pools, closes the transport
// and releases the metrics endpoint, if any. A session may still Run after
// Close, which starts them again; only the HTTP listener is gone. A session
// dropped without Close has its goroutines stopped by the garbage collector.
func (s *Session) Close() error {
	s.dropTopology()
	for i := range s.ranks {
		if p := s.ranks[i].pool; p != nil {
			p.Stop()
		}
	}
	if s.msrv == nil {
		return nil
	}
	err := s.msrv.Close()
	s.msrv = nil
	return err
}

// register plans b along the session's decomposition, a plain
// multi-statement block statement by statement. an is b's analysis when the
// caller has it (a Program's), nil to analyze here.
func (s *Session) register(b *scan.Block, an *scan.Analysis) error {
	if _, ok := s.plans[b]; ok {
		return nil
	}
	if b.Region.Rank() != s.cfg.Domain.Rank() {
		return fmt.Errorf("pipeline: block region %v has rank %d, domain has rank %d",
			b.Region, b.Region.Rank(), s.cfg.Domain.Rank())
	}
	if !s.cfg.Domain.Dim(s.cfg.WavefrontDim).Contains(b.Region.Dim(s.cfg.WavefrontDim).Lo) ||
		!s.cfg.Domain.Dim(s.cfg.WavefrontDim).Contains(b.Region.Dim(s.cfg.WavefrontDim).Hi) {
		return fmt.Errorf("pipeline: block region %v exceeds the domain %v along dimension %d",
			b.Region, s.cfg.Domain, s.cfg.WavefrontDim)
	}
	if s.genv != nil { // nil in a Program's session: no storage to check against
		if err := scan.CheckBounds(b, s.genv); err != nil {
			return err
		}
	}
	if b.Kind == scan.PlainKind && len(b.Stmts) > 1 {
		// Plain multi-statement groups execute statement at a time; register
		// a sub-block per statement.
		var subs []*scan.Block
		for i := range b.Stmts {
			sub := scan.NewPlain(b.Region, b.Stmts[i])
			if err := s.register(sub, nil); err != nil {
				return err
			}
			subs = append(subs, sub)
		}
		s.subBlocks[b] = subs
		// The statements' halo refreshes coalesce into the first statement's
		// operation: one rendezvous for the group instead of one per
		// statement, and checkpoint cut points stay where they were. The sub-
		// blocks are private to this group, so the first one's plan can carry
		// the union. A later statement still checks its own needs, which
		// catches an array an earlier statement of the group re-dirtied.
		first := s.plans[subs[0]]
		for _, sub := range subs[1:] {
			for side, names := range s.plans[sub].refresh {
				first.refresh[side] = append(first.refresh[side], names...)
			}
		}
		sortSides(&first.refresh)
		return nil
	}
	if an == nil {
		var err error
		if an, err = scan.Analyze(b, dep.Preference{PreferLow: true}); err != nil {
			return err
		}
	}
	return s.adopt(b, an, -1)
}

// adopt plans an analyzed single-kernel block along the session's
// decomposition (tDim < 0 lets the plan pick the tile dimension); arm folds
// its halo needs into the session's.
func (s *Session) adopt(b *scan.Block, an *scan.Analysis, tDim int) error {
	pl, err := newPlan(b, an, s.slabs, s.cfg.WavefrontDim, tDim, s.cfg.Block)
	if err != nil {
		return err
	}
	// Wavefront blocks flow through the ranks whose slabs they touch, in
	// slab order. A slab wholly outside the block's wavefront extent sits
	// the sweep out — the active ranks pipeline around it (see activeSpan)
	// — but a partially covered slab must still be at least as deep as the
	// pipelined halo, or a rank would need data from two ranks upstream.
	// Fully parallel blocks (boundary-condition rows, sub-region
	// initializations) may leave any rank idle.
	if depth := pl.maxPipeDepth(); depth > 0 {
		active := 0
		for _, slab := range s.slabs {
			portion, err := slab.Dim(pl.wDim).Intersect(b.Region.Dim(pl.wDim))
			if err != nil {
				return err
			}
			if portion.Empty() {
				continue
			}
			active++
			if s.cfg.Procs > 1 && portion.Size() < depth {
				return fmt.Errorf("pipeline: portion %v thinner than dependence depth %d; use fewer ranks", portion, depth)
			}
		}
		if active == 0 {
			return fmt.Errorf("pipeline: no slab intersects wavefront region %v", b.Region)
		}
	}
	pl.ranks = make([]rankBlock, s.cfg.Procs)
	for rank := range pl.ranks {
		pl.ranks[rank].portion = s.portionOf(b.Region, rank)
		pl.ranks[rank].scalars = scan.Capture(pl.scalars)
	}
	s.plans[b] = pl
	return nil
}

// Stats returns the communication volume and elapsed time of the last Run.
func (s *Session) Stats() SessionStats { return s.stats }

// Cancel aborts an in-flight Run: the topology is poisoned with cause, every
// blocked rank unwinds with a cancellation error, and Run reports it.
// Idempotent — the first cause wins — and safe to call from any goroutine;
// a Cancel with no Run in flight is a no-op. A canceled Run throws its
// topology away, so the session may Run again.
func (s *Session) Cancel(cause error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.live != nil {
		s.live.Cancel(cause)
	}
}

// dropTopology closes the kept topology and forgets it; the next Run builds
// another.
func (s *Session) dropTopology() {
	if s.topo != nil {
		s.topo.Close()
		s.topo = nil
	}
}

// Retune re-plans every registered block at tile width b. It must not be
// called while a Run is in flight. The shared plans change nowhere else,
// so every rank of a Run walks one tiling; the ownership table is decided
// again with them, since the width says whether a copy would be padded, and
// every rank's schedules are cut again.
func (s *Session) Retune(b int) {
	if b < 1 || b == s.cfg.Block {
		return
	}
	s.cfg.Block = b
	for _, pl := range s.plans {
		pl.block = b
		pl.tiles = pl.cutTiles()
	}
	if s.binds != nil {
		s.bind()
		for _, pl := range s.plans {
			s.cutSchedules(pl)
		}
	}
}

// linkCapacity is the bound Run puts on every comm link: the configured
// one, else — on the in-process transport, the only one with bounded links —
// the most messages one sweep of a registered block puts on a link. A halo
// refresh moves rows only toward the rank that reads them, so no message
// ever flows back to a rank that only produces (the head of a forward sweep
// repeated in a loop, the low ranks of a factorization); the bound is what
// keeps such a rank within a sweep of its consumer, and the messages queued
// and buffers in flight independent of how long the body runs. It does not
// bind inside a sweep: every message of an operation is consumed by the
// peer's same operation, and ranks execute operations in one order, so a
// full link always faces a receiver that is behind and draining it.
func (s *Session) linkCapacity() int {
	if s.cfg.LinkCapacity > 0 || s.cfg.Transport.Kind != comm.TransportChan {
		return s.cfg.LinkCapacity
	}
	n := 1 // a halo refresh or a collective: one message per link and operation
	for _, pl := range s.plans {
		if t := len(pl.tiles); len(pl.pipeNames) > 0 && t > n {
			n = t
		}
	}
	return n
}

// Run binds every rank's local fields — copies of the written arrays where
// another rank holds some of the rows, filled from the globals (scatter);
// the caller's fields or rows elsewhere — executes body on every rank
// concurrently, gathers the copies' slabs back into the global arrays, and
// records statistics. A Session may Run multiple times; each Run binds and
// scatters anew, on the ranks the first Run started: their goroutines,
// links and Rank values are kept, reset in place, until Close or a Run that
// fails. Runs must not overlap.
func (s *Session) Run(body func(r *Rank) error) (err error) {
	defer func() {
		if err != nil {
			s.dropTopology()
		}
	}()
	if s.topo != nil {
		s.topo.Reset()
	} else if s.topo, err = comm.NewTopology(s.cfg.Procs); err != nil {
		return err
	} else if err = s.topo.SetLinkCapacity(s.linkCapacity()); err == nil {
		// The link bound goes first: a socket transport refuses a bounded
		// topology with the error that names the transport.
		err = s.topo.SetTransport(s.cfg.Transport)
	}
	if err != nil {
		return err
	}
	topo := s.topo
	tr := s.cfg.Trace
	if s.flightTrace {
		// The session owns the flight ring: reset it so each Run's bundle
		// and /debug/critpath report cover only the run in flight.
		tr.Reset()
	}
	obs, err := metrics.Observe(tr, s.cfg.Metrics, s.cfg.Procs)
	if err != nil {
		return err
	}
	topo.SetObserver(obs)
	topo.SetFaults(s.cfg.Faults)
	if s.cfg.Faults == nil {
		if err := topo.SetBufPool(s.cfg.Pool); err != nil {
			return err
		}
	}
	if err := topo.SetLinkCapacity(s.linkCapacity()); err != nil {
		return err
	}
	pm := newPipeMetrics(s.cfg.Metrics, obs)
	var ck *ckptRuntime
	if s.cfg.Checkpoint != nil {
		ck = newCkptRuntime(s.cfg.Checkpoint, s.cfg.Procs, pm)
		if err := topo.SetRecovery(ck.recovery(s.cfg.Checkpoint.MaxRestarts)); err != nil {
			return err
		}
	}
	s.obs, s.pm = obs, pm
	s.ck = ck
	dropBase := pm.traceDropBase(tr)
	// Where a rank copies rows another rank's slab holds, all ranks must
	// finish scattering (reading the global arrays) before any rank may
	// write them — computing in the caller's rows or gathering; with no
	// other messages in flight nothing else orders the ranks. Where none
	// does, no rank reads rows another writes before a token says so.
	phase := s.phase
	start := time.Now()
	s.mu.Lock()
	s.live = topo
	s.mu.Unlock()
	err = topo.Run(func(e *comm.Endpoint) error {
		// A restarted rank restores from its snapshot instead of
		// re-scattering — by restart time other ranks may already have
		// gathered into the globals — and must not re-enter the phase
		// barrier its previous incarnation already passed.
		restoring := ck != nil && ck.pending[e.Rank()].Swap(false)
		rk, err := s.rank(e, restoring)
		// Pool-leased tape registers go back when the rank's body ends —
		// error paths included — so post-run Outstanding() audits see a
		// drained pool, and the kept rank, kernels and schedules let go of
		// the Run's fields: the next Run binds its own.
		defer rk.releaseScratch()
		if !restoring && phase != nil {
			barrierT0 := obs.Now()
			phase.Wait()
			if obs != nil {
				obs.Emit(trace.Ev(trace.KindBarrier, e.Rank(), barrierT0, obs.Now()))
			}
		}
		if err != nil {
			return err
		}
		if restoring {
			if err := rk.restore(ck); err != nil {
				return err
			}
		}
		if err := body(rk); err != nil {
			return err
		}
		rk.gather()
		return nil
	})
	s.mu.Lock()
	s.live = nil
	s.mu.Unlock()
	err = ck.refused(err)
	elapsed := time.Since(start)
	var drift *metrics.DriftReport
	if pm != nil {
		w := s.cfg.WavefrontDim
		nW := s.cfg.Domain.Dim(w).Size()
		nT := 1
		if nW > 0 {
			nT = s.cfg.Domain.Size() / nW
		}
		rep := pm.finishRun(nW, nT, s.cfg.Procs, s.cfg.Block, elapsed)
		drift = &rep
		pm.publishPool(topo.BufPool())
	}
	var poolStats *bufpool.Stats
	if p := topo.BufPool(); p != nil {
		st := p.Stats()
		poolStats = &st
	}
	pendingMsgs := 0
	if err == nil {
		if n := topo.PendingMessages(); n != 0 {
			pendingMsgs = n
			err = fmt.Errorf("pipeline: session left %d messages undelivered", n)
		}
	}
	pm.publishTraceDrops(tr, dropBase, trace.Layout{Procs: s.cfg.Procs, Workers: s.workers})
	summary := tr.Summarize()
	if s.flightTrace {
		summary = nil // the flight ring is internal; the caller asked for no trace
	}
	s.stats = SessionStats{Comm: topo.Stats(), Elapsed: elapsed, Summary: summary, Drift: drift, Pool: poolStats}
	if s.cfg.Postmortem.Enabled() {
		in := critpath.CaptureInput{
			Err:             err,
			Config:          s.runConfigPM(),
			Trace:           tr,
			Metrics:         s.cfg.Metrics,
			Procs:           s.cfg.Procs,
			Workers:         s.workers,
			PendingMessages: pendingMsgs,
		}
		if ck != nil {
			in.CkptStore = ck.store
			in.Restarts = int(ck.restarts.Load())
		}
		if s.cfg.Faults != nil {
			in.FaultsFired = s.cfg.Faults.Fired()
		}
		s.cfg.Postmortem.RunEnded(in)
	}
	if s.cpHolder != nil && tr != nil {
		rep, _ := critpath.Analyze(tr.Events(), critpath.Options{
			Procs: s.cfg.Procs, Workers: s.workers,
			Dropped: tr.Dropped(), Tolerant: true, Metrics: s.cfg.Metrics,
		})
		s.cpHolder.Set(rep)
	}
	return err
}

// runConfigPM condenses the session's configuration into the post-mortem
// bundle's RunConfig. A session has one tile dimension to name only when
// it holds a single block.
func (s *Session) runConfigPM() critpath.RunConfig {
	rc := critpath.RunConfig{
		Procs:        s.cfg.Procs,
		Block:        s.cfg.Block,
		WavefrontDim: s.cfg.WavefrontDim,
		TileDim:      -1,
		Scheduler:    s.cfg.Scheduler.String(),
		Transport:    s.cfg.Transport.Kind.String(),
		LinkCapacity: s.linkCapacity(),
		Workers:      s.workers,
	}
	if len(s.plans) == 1 {
		for _, pl := range s.plans {
			rc.TileDim = pl.tDim
		}
	}
	if s.cfg.Checkpoint != nil {
		rc.CheckpointEvery = s.cfg.Checkpoint.every()
	}
	return rc
}

// Rank is one SPMD participant's handle: its local arrays, its endpoint,
// and its view of the session's plans. The session keeps one per id from
// arm on; a Run resets it (Session.rank) and lets go of the Run's fields at
// the end (releaseScratch).
type Rank struct {
	sess   *Session
	e      *comm.Endpoint
	id     int
	locals map[string]*field.Field
	lenv   *forwardEnv
	// What the rank derives for the session beside its share of each block
	// (plan.ranks[id]): the halo-exchange geometry, built by its first
	// exchange; the reduction operands it folds, re-bound by each Run's
	// first fold of them; under the task DAG the worker pool every graph of
	// the rank runs on, started by its first Exec and stopped by Close.
	xregs    map[string]xchgRegs
	reducers []*rankReducer
	pool     *taskdag.Pool
	// dirty marks, per side (dirtyNeg, dirtyPos), the arrays written since
	// that side's halo was last exchanged. Every rank executes the same
	// operations, so every rank holds the same marks.
	dirty map[string]uint8
	// wrote marks arrays written at all (a copy's slab is gathered at the
	// end).
	wrote map[string]bool
	// sendSeq/recvSeq are per-peer tag counters; because every rank
	// executes the same operation sequence, matching counters produce
	// matching tags.
	sendSeq, recvSeq []int
	// waveRuns counts executed wavefront blocks; because every rank
	// executes the same block sequence, equal counts identify the same run
	// in the trace on every rank.
	waveRuns int
	// needs is the reusable scratch list, per halo side, of the stale arrays
	// an operation is about to read (refresh).
	needs [2][]string
	// Checkpoint state (all zero when checkpointing is off). ops counts leaf
	// operations (Exec of a registered block, Reduce, Barrier) executed by
	// the SPMD body; because every rank runs the same body, equal counts
	// identify the same operation on every rank. cuts counts checkpoint cut
	// points passed and lastSnap is the cut index of the latest snapshot. A
	// restarted rank re-runs the body from the top with ffOp set to the
	// snapshot's operation index: operations below it are skipped — their
	// effects are already in the restored state — with Reduce results
	// replayed from reduceLog instead of re-communicated. When the snapshot
	// was cut inside a wavefront sweep, ffTile > 0 is the tile operation
	// ffOp resumes at and ffRecvd the boundary messages consumed by then;
	// the sweep clears both as it picks them up.
	ops, cuts, lastSnap   int
	ffOp, ffTile, ffRecvd int
	reduceLog             []float64
	reduceIdx             int
}

// forwardEnv resolves arrays from the rank's local fields; scalars come
// from the rank-local overlay first (SPMD-updated values), then the global
// environment.
type forwardEnv struct {
	arrays  map[string]*field.Field
	scalars map[string]float64 // rank-local overlay; may be nil
	parent  expr.Env
}

func (f *forwardEnv) Array(name string) *field.Field { return f.arrays[name] }

func (f *forwardEnv) Scalar(name string) (float64, bool) {
	if v, ok := f.scalars[name]; ok {
		return v, true
	}
	return f.parent.Scalar(name)
}

// xchgRegs is one array's halo-exchange geometry: the rows to send to and
// receive from each neighbour, indexed by the side the neighbour is on
// (sideNeg = rank id-1, sidePos = rank id+1). A zero Region (rank 0) marks
// an absent transfer.
type xchgRegs struct {
	send, recv [2]grid.Region
}

// rank readies the session's Rank of e's id for one body invocation — a
// Run's, or a restarted rank's — with the state of a rank that has run
// nothing, and binds its local fields as the ownership table says. An
// array some block writes gets a local field over its box — the rank's
// slab plus its halo along the wavefront dimension: a view of the caller's
// rows, or a copy filled from them (scatter). An array no block writes has
// no owner that could change it, so the rank binds the caller's field
// itself. Neither a view nor the caller's field allocates or scatters, and
// neither is gathered; a read-only field is not exchanged or snapshotted
// either. When restoring, the copies are allocated but left unfilled —
// restore overwrites every element from the snapshot, and reading the
// globals here would race the gathers of ranks that already finished
// (nobody gathers into a read-only array or into a view's rows).
func (s *Session) rank(e *comm.Endpoint, restoring bool) (*Rank, error) {
	scatterT0 := s.obs.Now()
	r := &s.ranks[e.Rank()]
	r.e, r.waveRuns, r.reduceLog, r.reduceIdx = e, 0, r.reduceLog[:0], 0
	r.ops, r.cuts, r.lastSnap, r.ffOp, r.ffTile, r.ffRecvd = 0, 0, 0, 0, 0, 0
	clear(r.sendSeq)
	clear(r.recvSeq)
	for i, name := range s.names {
		b := s.binding(r.id, i)
		switch b.own {
		case ownField:
			r.locals[name] = b.global
		case ownRows, ownRowsHalo:
			r.locals[name] = b.view
		default:
			// The one place rank-local storage is allocated: its pitch is the
			// runtime's to choose (see field.NewLocal), the caller's arrays
			// stay dense.
			g := b.global
			lf, err := field.NewLocal(name, b.box, g.Layout(), s.localTile(g))
			if err != nil {
				return r, err
			}
			if !restoring {
				lf.CopyRegion(b.box, g)
			}
			r.locals[name] = lf
		}
	}
	if o := s.obs; o != nil && !restoring {
		o.Emit(trace.Ev(trace.KindScatter, r.id, scatterT0, o.Now()))
	}
	return r, nil
}

// localTile is the width of the tiles this session's sweeps walk along g's
// unit-stride dimension, for field.NewLocal's pitch choice; 0 — whole runs,
// dense storage — unless the width is known and narrow for the whole Run:
// the static schedule (the task DAG keeps whole rows or one long column
// chain per worker, see taskdag.decompose, and the naive schedule whole
// rows) and a registered sweep that cuts that dimension rather than
// another. Every Run allocates its copies anew, so they follow a Retune.
func (s *Session) localTile(g *field.Field) int {
	if s.cfg.Scheduler != scan.SchedStatic {
		return 0
	}
	unit := g.Rank() - 1
	if g.Layout() == field.ColMajor {
		unit = 0
	}
	for _, pl := range s.plans {
		if len(pl.pipeNames) > 0 && pl.tDim == unit && !pl.noTiling {
			return s.cfg.Block
		}
	}
	return 0
}

// ID returns the rank index.
func (r *Rank) ID() int { return r.id }

// obs returns the observer of the Run in flight (nil = neither traced nor
// metered).
func (r *Rank) obs() *metrics.Observer { return r.sess.obs }

// SetScalar binds a rank-local scalar, shadowing the global environment. A
// block that reads the scalar follows a new value from its next Exec on,
// which lowers the block's kernels again (Rank.block).
func (r *Rank) SetScalar(name string, v float64) {
	if r.lenv.scalars == nil {
		r.lenv.scalars = map[string]float64{}
	}
	r.lenv.scalars[name] = v
}

// GetScalar reads a scalar through the rank-local overlay.
func (r *Rank) GetScalar(name string) (float64, bool) { return r.lenv.Scalar(name) }

// P returns the session's rank count.
func (r *Rank) P() int { return r.sess.cfg.Procs }

// Barrier synchronizes all ranks.
func (r *Rank) Barrier() error {
	if skip, err := r.ckOp(); err != nil || skip {
		return err
	}
	r.obs().Barrier(r.id)
	return r.e.Barrier()
}

func (r *Rank) sendNext(to int, data []float64) error {
	tag := r.sendSeq[to]
	r.sendSeq[to]++
	return r.e.Send(to, tag, data)
}

func (r *Rank) recvNext(from int) ([]float64, error) {
	tag := r.recvSeq[from]
	r.recvSeq[from]++
	return r.e.Recv(from, tag)
}

// computed closes the compute span opened at t0 (the observer's clock) over
// elems points as one compute event: a tile of a block, which is also one
// sample of the drift monitor's per-point cost. tile is its index in the
// block (0 for a block that runs in one piece), wave the sweep it belongs
// to, peer and need the upstream message it waited for; -1 marks what does
// not apply.
func (r *Rank) computed(t0 int64, elems, tile, wave, peer, need int) {
	if o := r.obs(); o != nil {
		ev := trace.Ev(trace.KindCompute, r.id, t0, o.Now())
		ev.Elems, ev.Tile, ev.Wave, ev.Peer, ev.Need = elems, tile, wave, peer, need
		o.Emit(ev)
	}
}

// activeSpan returns the first and last rank whose slab intersects the
// block's wavefront extent. Slabs partition the domain contiguously along
// the wavefront dimension and a block region is one contiguous range, so
// the active ranks form a single index interval — identical on every rank,
// which keeps the rewired pipeline neighbours and their tag counters in
// agreement without any communication.
func (s *Session) activeSpan(pl *plan) (lo, hi int) {
	lo, hi = -1, -1
	ext := pl.region.Dim(pl.wDim)
	for i, slab := range s.slabs {
		rows, err := slab.Dim(pl.wDim).Intersect(ext)
		if err != nil || rows.Empty() {
			continue
		}
		if lo < 0 {
			lo = i
		}
		hi = i
	}
	return lo, hi
}

// portionOf returns rank's share of region: its rows (rowsOf), region's
// extent elsewhere.
func (s *Session) portionOf(region grid.Region, rank int) grid.Region {
	dims := region.Dims()
	dims[s.cfg.WavefrontDim] = s.rowsOf(region, rank)
	return grid.MustRegion(dims...)
}

// rowsOf returns the rows of region along the wavefront dimension that
// rank's slab holds.
func (s *Session) rowsOf(region grid.Region, rank int) grid.Range {
	w := s.cfg.WavefrontDim
	rows, err := region.Dim(w).Intersect(s.slabs[rank].Dim(w))
	if err != nil {
		panic(err) // strides validated at registration
	}
	return rows
}

// newKernel compiles b against the rank's local fields. It is the
// runtime's one kernel-construction site — the static schedule's kernel
// and every task-DAG worker's come from here — so each kernel reuses the
// dependence walk of the block's analysis, leases tape registers from the
// rank's pool shard, and publishes its path tallies.
func (r *Rank) newKernel(b *scan.Block, pl *plan) (*scan.Kernel, error) {
	cfg := &r.sess.cfg
	kern, err := scan.NewKernelDeps(b, r.lenv, pl.an.UDVs)
	if err != nil {
		return nil, err
	}
	kern.SetScratch(cfg.Pool, r.id)
	kern.SetMetrics(cfg.Metrics, r.id)
	return kern, nil
}

// Exec runs one registered block on this rank, exchanging stale halos
// first and pipelining wavefront blocks through the ranks. Plain
// multi-statement blocks execute statement at a time.
func (r *Rank) Exec(b *scan.Block) error {
	if subs, ok := r.sess.subBlocks[b]; ok {
		for _, sub := range subs {
			if err := r.Exec(sub); err != nil {
				return err
			}
		}
		return nil
	}
	pl, ok := r.sess.plans[b]
	if !ok {
		return fmt.Errorf("pipeline: block %p was not registered with the session", b)
	}
	if skip, err := r.ckOp(); err != nil || skip {
		return err
	}
	if err := r.refresh(&pl.refresh); err != nil {
		return err
	}

	rb := r.block(b, pl)
	L := rb.portion
	var err error
	switch {
	case pl.an.NeedsTemp():
		// Contradictory anti-dependences: materialize the right-hand side
		// into a temporary over this rank's portion (the halo carries the
		// required pre-block values).
		sub := scan.NewPlain(L, b.Stmts...)
		t0 := r.obs().Now()
		err = scan.Exec(sub, r.lenv, scan.ExecOptions{ForceTemp: true, Trace: r.sess.cfg.Trace, TraceRank: r.id})
		r.computed(t0, L.Size(), 0, -1, -1, -1)
	case len(pl.pipeNames) > 0:
		err = r.execWavefront(b, pl, rb)
	default:
		// Fully parallel (or anti-dependences only): compute the portion.
		err = r.execParallel(b, pl, rb)
	}
	if err != nil {
		return err
	}
	for name := range pl.written {
		r.dirty[name] = dirtyBoth
		r.wrote[name] = true
	}
	return nil
}

// execParallel computes a block without pipelined arrays over the rank's
// whole portion, in one piece: no boundary messages order the ranks.
func (r *Rank) execParallel(b *scan.Block, pl *plan, rb *rankBlock) error {
	L := rb.portion
	if r.sess.cfg.Scheduler == scan.SchedTaskDAG {
		tg, err := r.taskGraphFor(b, pl, rb)
		if err != nil {
			return err
		}
		t0 := r.obs().Now()
		tg.Run()
		r.computed(t0, L.Size(), 0, -1, -1, -1)
		return nil
	}
	kern, err := r.kernelFor(b, pl, rb)
	if err != nil {
		return err
	}
	t0 := r.obs().Now()
	kern.Run(L, pl.an.Loop)
	r.computed(t0, L.Size(), 0, -1, -1, -1)
	return nil
}

// execWavefront is the paper's parallel loop, the runtime's only one:
// receive the upstream boundary messages a tile needs, compute the tile,
// forward its boundary downstream. Travel direction follows the block's
// derived loop, so forward and backward sweeps flow through opposite
// neighbours. The schedule (tile regions, boundary regions, message sizes)
// comes from the execPlan the session keeps, so the steady-state wave
// allocates nothing when a buffer pool is attached. With checkpointing on,
// the top of every tile after the first is a cut point (the first tile's is
// the operation's start, see ckOp) — always before the tile's receives,
// where the portion is exactly "tiles < t computed, recvd messages
// consumed".
func (r *Rank) execWavefront(b *scan.Block, pl *plan, rb *rankBlock) error {
	ep := rb.sched
	if ep == nil {
		// This rank's slab misses the block's wavefront extent entirely
		// (shrinking factorization steps, sub-region sweeps): the active
		// ranks pipeline around it, and it neither computes nor exchanges
		// boundary messages. Wave accounting still advances so every rank
		// agrees on wave identities across blocks.
		r.waveRuns++
		return nil
	}
	pm := r.sess.pm
	// A restarted rank whose snapshot was cut inside this sweep resumes at
	// that tile; what precedes the tile loop its previous incarnation
	// already did, and the restored counters account for it.
	t0, recvd := r.ffTile, r.ffRecvd
	r.ffTile, r.ffRecvd = 0, 0
	if t0 == 0 {
		r.waveRuns++
		if pm != nil {
			pm.waves.Add(r.id, 1)
		}
	}
	wave := r.waveRuns - 1
	r.sess.cfg.Faults.SetWave(r.id, wave+1)

	if pm != nil {
		defer pm.obs.Swept(r.id, !ep.hasUp, !ep.hasDown, pm.obs.Now())
	}
	if r.sess.cfg.Scheduler == scan.SchedTaskDAG {
		return r.execWavefrontDAG(b, pl, rb, wave)
	}
	kern, err := r.kernelFor(b, pl, rb)
	if err != nil {
		return err
	}
	ck := r.sess.ck
	peer := -1
	if ep.hasUp {
		peer = ep.upstream
	}
	for t := t0; t < len(ep.tiles); t++ {
		if ck != nil && t > 0 {
			if err := r.cut(ck, t, recvd); err != nil {
				return err
			}
		}
		need := ep.needUp[t]
		for ; recvd <= need; recvd++ {
			if err := r.recvWave(ep, recvd, wave); err != nil {
				return err
			}
		}
		tile := ep.tiles[t]
		begin := r.obs().Now()
		kern.Run(tile, pl.an.Loop)
		r.computed(begin, tile.Size(), t, wave, peer, need)
		if ep.hasDown {
			if err := r.sendWave(ep, t, wave); err != nil {
				return err
			}
		}
	}
	return nil
}

// recvWave receives boundary message recvd of one wavefront sweep and
// unpacks it into the schedule's halo regions.
func (r *Rank) recvWave(ep *execPlan, recvd, wave int) error {
	o := r.obs()
	waveT0 := o.Now()
	buf, err := r.recvNext(ep.upstream)
	if err != nil {
		return err
	}
	if len(buf) < ep.recvTotal[recvd] {
		return fmt.Errorf("pipeline: rank %d: wavefront message %d too short: need %d elements, have %d",
			r.id, recvd, ep.recvTotal[recvd], len(buf))
	}
	off := 0
	for i, f := range ep.fields {
		sz := ep.recvSizes[recvd][i]
		if _, err := f.UnpackFrom(ep.recvRegs[recvd][i], buf[off:off+sz]); err != nil {
			return err
		}
		off += sz
	}
	r.e.ReleaseTo(ep.upstream, buf)
	if o != nil {
		ev := trace.Ev(trace.KindWaveRecv, r.id, waveT0, o.Now())
		ev.Peer, ev.Seq, ev.Wave, ev.Elems = ep.upstream, recvd, wave, len(buf)
		o.Emit(ev)
	}
	return nil
}

// sendWave packs and forwards tile t's boundary rows downstream.
func (r *Rank) sendWave(ep *execPlan, t, wave int) error {
	o := r.obs()
	waveT0 := o.Now()
	buf := r.e.Lease(ep.sendTotal[t])
	off := 0
	for i, f := range ep.fields {
		n, err := f.PackInto(ep.sendRegs[t][i], buf[off:])
		if err != nil {
			return err
		}
		off += n
	}
	if err := r.sendNext(ep.downstream, buf); err != nil {
		return err
	}
	if o != nil {
		ev := trace.Ev(trace.KindWaveSend, r.id, waveT0, o.Now())
		ev.Peer, ev.Seq, ev.Wave, ev.Elems = ep.downstream, t, wave, len(buf)
		o.Emit(ev)
	}
	return nil
}

// execWavefrontDAG runs one wavefront sweep under the task-DAG scheduler:
// receive every upstream boundary message, execute the portion as a tile
// DAG on the worker pool, forward every boundary message. Counts, tags,
// and payloads match the static schedule exactly (boundary values are
// final once the portion has computed), so downstream ranks — static or
// taskdag — cannot tell the difference and results stay bit-identical; the
// price is pipeline overlap across ranks, which the in-rank parallelism
// replaces. The portion runs as one piece, so the operation's start is the
// sweep's only checkpoint cut point.
func (r *Rank) execWavefrontDAG(b *scan.Block, pl *plan, rb *rankBlock, wave int) error {
	ep := rb.sched
	T := len(ep.tiles)
	peer, need := -1, -1
	if ep.hasUp {
		peer, need = ep.upstream, T-1
		for recvd := 0; recvd < T; recvd++ {
			if err := r.recvWave(ep, recvd, wave); err != nil {
				return err
			}
		}
	}
	tg, err := r.taskGraphFor(b, pl, rb)
	if err != nil {
		return err
	}
	t0 := r.obs().Now()
	tg.Run()
	r.computed(t0, rb.portion.Size(), 0, wave, peer, need)
	if ep.hasDown {
		for t := 0; t < T; t++ {
			if err := r.sendWave(ep, t, wave); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildXregs works out the rank's halo-exchange geometry, kept for the
// session: for each written array (no other is ever dirty) and each
// neighbour side, the rows of my slab the neighbour's halo needs (send) and
// the rows of its slab my halo needs (recv). A local's bounds are its box in
// the ownership table, the same every Run.
func (r *Rank) buildXregs() {
	s := r.sess
	slab := s.slabs[r.id]
	xregs := make(map[string]xchgRegs, len(s.written))
	w := s.cfg.WavefrontDim
	for _, name := range s.written {
		h := s.halos[name]
		rowRegion := func(rows grid.Range) grid.Region {
			dims := r.locals[name].Bounds().Dims()
			dims[w] = rows
			return grid.MustRegion(dims...)
		}
		var x xchgRegs
		if peer := r.id - 1; peer >= 0 {
			// Peer below me in index order: it needs my lowest pos[w] rows; I
			// need its highest neg[w] rows.
			if h.pos[w] > 0 {
				lo := slab.Dim(w).Lo
				x.send[sideNeg] = rowRegion(grid.NewRange(lo, lo+h.pos[w]-1))
			}
			if h.neg[w] > 0 {
				hi := s.slabs[peer].Dim(w).Hi
				x.recv[sideNeg] = rowRegion(grid.NewRange(hi-h.neg[w]+1, hi))
			}
		}
		if peer := r.id + 1; peer < s.cfg.Procs {
			// Peer above me: it needs my highest neg[w] rows; I need its
			// lowest pos[w] rows.
			if h.neg[w] > 0 {
				hi := slab.Dim(w).Hi
				x.send[sidePos] = rowRegion(grid.NewRange(hi-h.neg[w]+1, hi))
			}
			if h.pos[w] > 0 {
				lo := s.slabs[peer].Dim(w).Lo
				x.recv[sidePos] = rowRegion(grid.NewRange(lo, lo+h.pos[w]-1))
			}
		}
		xregs[name] = x
	}
	r.xregs = xregs
}

// refresh brings up to date, on every rank at once, the halos an operation
// is about to read — of the arrays want names per side, those whose mark for
// that side is dirty — and marks them clean. A side's rows move one way:
// every rank's neg halo is filled by the rank below it, so refreshing neg
// halos sends rows up (to id+1) and nothing down, and pos halos the reverse.
// The wire format is one coalesced message per direction: names in sorted
// order, each array's region back-to-back in canonical order. A direction
// with no array to move has no message at all; sender and receiver skip it
// alike, because both derive the lists from the same plan and the same
// dirty marks — so the per-peer tag counters stay in step. Regions are
// worked out once per session, by the first refresh that moves rows, and
// payloads are leased, so a steady-state refresh allocates nothing when a
// buffer pool is attached; receivers return each payload to its sender's
// shard.
func (r *Rank) refresh(want *[2][]string) error {
	stale := 0
	for side, names := range want {
		needs := r.needs[side][:0]
		for _, name := range names {
			if r.dirty[name]&(1<<side) != 0 {
				needs = append(needs, name)
			}
		}
		r.needs[side] = needs
		stale += len(needs)
	}
	if stale == 0 {
		return nil
	}
	if r.P() > 1 {
		if err := r.moveRows(&r.needs); err != nil {
			return err
		}
	}
	for side, names := range r.needs {
		for _, name := range names {
			r.dirty[name] &^= 1 << side
		}
	}
	return nil
}

// moveRows is the communication half of refresh.
func (r *Rank) moveRows(needs *[2][]string) error {
	if r.xregs == nil {
		r.buildXregs()
	}
	xregs := r.xregs
	o := r.obs()
	exchangeT0 := o.Now()
	var took [2]bool // the neighbours that took part, by the side they are on
	elems := 0
	// Send first (a refresh puts one message on a link, so the send blocks
	// only on a peer still in an earlier operation), then receive. The rows
	// for a halo on one side go to the neighbour on the other.
	for side, names := range needs {
		to := r.id + 1 - 2*side
		if len(names) == 0 || to < 0 || to >= r.P() {
			continue
		}
		total := 0
		for _, name := range names {
			if reg := xregs[name].send[1-side]; reg.Rank() != 0 {
				total += reg.Size()
			}
		}
		buf := r.e.Lease(total)
		off := 0
		for _, name := range names {
			reg := xregs[name].send[1-side]
			if reg.Rank() == 0 {
				continue
			}
			n, err := r.locals[name].PackInto(reg, buf[off:])
			if err != nil {
				return err
			}
			off += n
		}
		if err := r.sendNext(to, buf); err != nil {
			return err
		}
		took[1-side] = true
		elems += total
	}
	for side, names := range needs {
		from := r.id - 1 + 2*side
		if len(names) == 0 || from < 0 || from >= r.P() {
			continue
		}
		buf, err := r.recvNext(from)
		if err != nil {
			return err
		}
		off := 0
		for _, name := range names {
			reg := xregs[name].recv[side]
			if reg.Rank() == 0 {
				continue
			}
			sz := reg.Size()
			if off+sz > len(buf) {
				return fmt.Errorf("pipeline: rank %d: halo message from %d too short", r.id, from)
			}
			if _, err := r.locals[name].UnpackFrom(reg, buf[off:off+sz]); err != nil {
				return err
			}
			off += sz
		}
		r.e.ReleaseTo(from, buf)
		took[side] = true
		elems += off
	}
	if o != nil {
		ev := trace.Ev(trace.KindExchange, r.id, exchangeT0, o.Now())
		ev.Peer, ev.Seq, ev.Elems = r.id-1, r.id+1, elems
		if !took[sideNeg] {
			ev.Peer = ev.Seq
		}
		if !took[sidePos] {
			ev.Seq = ev.Peer
		}
		o.Emit(ev)
	}
	return nil
}

// Reduce folds an expression over the region across all ranks: a local
// fold over this rank's portion combined through an all-reduce, after
// refreshing any stale halos the operand reads across the boundary.
func (r *Rank) Reduce(op scan.ReduceOp, region grid.Region, node expr.Node) (float64, error) {
	if skip, err := r.ckOp(); err != nil {
		return 0, err
	} else if skip {
		// Fast-forwarding a restart: peers completed this reduction before
		// the crash; replay the logged result instead of re-communicating.
		if r.reduceIdx >= len(r.reduceLog) {
			return 0, fmt.Errorf("pipeline: rank %d: restart replay exhausted the reduce log at op %d",
				r.id, r.ops-1)
		}
		v := r.reduceLog[r.reduceIdx]
		r.reduceIdx++
		return v, nil
	}
	rr := r.reducerFor(node)
	if err := r.refresh(&rr.halo); err != nil {
		return 0, err
	}
	if !rr.sized || !rr.region.Equal(region) {
		rr.region, rr.portion, rr.sized = region, r.sess.portionOf(region, r.id), true
	}
	// The local fold is compute like any block's: a span with its point
	// count and a share of the rank's busy time. It carries no tile index:
	// tiles calibrate the drift monitor's per-point cost, and a fold's
	// per-point cost is not a wavefront tile's.
	o := r.obs()
	foldT0 := o.Now()
	local, err := rr.fold.Reduce(op, rr.portion)
	if err != nil {
		return 0, err
	}
	if o != nil {
		ev := trace.Ev(trace.KindCompute, r.id, foldT0, o.Now())
		ev.Elems = rr.portion.Size()
		o.Emit(ev)
	}
	commOp := comm.SumOp
	switch op {
	case scan.MaxReduce:
		commOp = comm.MaxOp
	case scan.MinReduce:
		commOp = comm.MinOp
	}
	reduceT0 := o.Now()
	out, err := r.e.AllReduce(local, commOp)
	if err == nil && r.sess.ck != nil {
		r.reduceLog = append(r.reduceLog, out)
	}
	if o != nil {
		o.Emit(trace.Ev(trace.KindReduce, r.id, reduceT0, o.Now()))
	}
	return out, err
}

// rankReducer is one reduction operand's state on a rank, kept for the
// session: the prepared fold, the names of the arrays it reads across the
// slab boundary on each side, by the sign of the reference's shift (sorted,
// distinct — the halos to refresh when dirty), this rank's portion of the
// last region reduced over, and the rank of the Run in flight whose fields
// the fold is bound to (nil between Runs).
type rankReducer struct {
	node    expr.Node
	fold    *scan.Reducer
	halo    [2][]string
	region  grid.Region
	portion grid.Region
	sized   bool
	bound   *Rank
}

// maxReducers bounds the per-rank operand cache. A program reduces over a
// handful of operands; one that builds a fresh operand per call would
// otherwise grow the list (and its leased registers) without limit, so past
// the bound the oldest entry is replaced.
const maxReducers = 8

// reducerFor returns the rank's kept state for an operand, re-bound to the
// Run's fields at the Run's first fold of it (scan.Reducer.Rebind), or
// prepares it on first sight. Expression nodes hold slices, so they cannot
// key a map; the list is short and expr.Equal does not allocate.
func (r *Rank) reducerFor(node expr.Node) *rankReducer {
	for _, rr := range r.reducers {
		if expr.Equal(rr.node, node) {
			if rr.bound != r {
				rr.fold.Rebind(r.lenv)
				rr.bound = r
			}
			return rr
		}
	}
	rr := &rankReducer{node: node, fold: scan.NewReducer(node, r.lenv), bound: r}
	rr.fold.SetScratch(r.sess.cfg.Pool, r.id)
	w := r.sess.cfg.WavefrontDim
	for _, ref := range expr.Refs(node) {
		if ref.Shift != nil && w < len(ref.Shift) && ref.Shift[w] != 0 {
			side := sideOf(ref.Shift[w])
			rr.halo[side] = append(rr.halo[side], ref.Name)
		}
	}
	sortSides(&rr.halo)
	if len(r.reducers) < maxReducers {
		r.reducers = append(r.reducers, rr)
	} else {
		r.reducers[0].fold.ReleaseScratch()
		copy(r.reducers, r.reducers[1:])
		r.reducers[maxReducers-1] = rr
	}
	return rr
}

// sortSides puts each side's names in sorted order, each once: the order
// of a refresh message's payload, which both ends must agree on.
func sortSides(lists *[2][]string) {
	for side, names := range lists {
		slices.Sort(names)
		lists[side] = slices.Compact(names)
	}
}

// gather writes the slab of every copy the rank wrote back to the global
// fields, over the regions the ownership table cut at arm. Slabs are
// disjoint, so concurrent ranks touch disjoint elements.
func (r *Rank) gather() {
	o := r.obs()
	gatherT0 := o.Now()
	for i, name := range r.sess.names {
		if b := r.sess.binding(r.id, i); b.slab != nil && r.wrote[name] {
			b.global.CopyRegion(*b.slab, r.locals[name])
		}
	}
	if o != nil {
		o.Emit(trace.Ev(trace.KindGather, r.id, gatherT0, o.Now()))
	}
}
