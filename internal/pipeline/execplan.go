package pipeline

import (
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/scan"
	"wavefront/internal/taskdag"
	"wavefront/internal/trace"
)

// What a session keeps of each rank between Runs, and how a Run binds it.
// Everything a rank's Exec needs that does not depend on storage is derived
// once per session, per (rank, block): the portion when the block is
// registered, the wavefront schedule at arm and on Retune, the kernel — or
// under the task DAG the tile graph with its worker kernels, on the rank's
// one pool — at the rank's first Exec of the block and again after a scalar
// the block reads changes value. A Run — a restarted rank's too — only
// binds them to its local fields, at its first Exec of the block, and lets
// go of them when the rank's body ends (releaseScratch), so nothing kept
// pins a Run's copies and no goroutine starts in a warm Run.

// rankBlock is what the session keeps of one rank's share of one block
// (plan.ranks).
type rankBlock struct {
	// portion is the rank's share of the block region (Session.portionOf).
	portion grid.Region
	// sched is the rank's schedule of a wavefront block; nil for any other
	// block and for a rank whose slab misses the sweep.
	sched *execPlan
	// kern is the static schedule's kernel and dag the task DAG's graph and
	// worker kernels: built at the rank's first Exec of the block and
	// re-bound by every later Run's. scalars watches the scalars the block
	// reads (Session.adopt) and holds the values they were last lowered
	// with. cuts and builds count schedules cut and kernels lowered (a task
	// graph counts once), for the tests.
	kern         *scan.Kernel
	dag          *scan.TaskGraph
	scalars      scan.Captured
	cuts, builds int
	// bound is the rank of the Run in flight whose fields sched and kern
	// hold; nil between Runs.
	bound *Rank
}

// execPlan is a rank's fully materialized schedule for one wavefront
// block: every tile region, every boundary region, and every message size
// the hot loop needs, cut from regions and sizes alone once per session
// (Session.cutSchedules), so the steady-state wave touches no maps, builds no
// regions, and — with a buffer pool attached — allocates nothing. fields is
// its one storage-dependent member, bound per Run (Rank.block).
type execPlan struct {
	upstream, downstream int
	hasUp, hasDown       bool
	// tiles[t] is the compute region of pipeline step t (the slab
	// restricted to tile t).
	tiles []grid.Region
	// needUp[t] is the index of the last upstream message required before
	// step t; -1 without an upstream neighbour.
	needUp []int
	// fields resolves pl.payload against the bound rank's local arrays, in
	// the same order, so the loop never consults the name map; all nil
	// between Runs.
	fields []*field.Field
	// Coalesced message layout, one message per (peer, step): sendRegs[t]
	// holds each payload array's boundary region in payload order and
	// sendSizes[t] the matching element counts; sendTotal[t] is their sum
	// (the payload length, 0 when every pipelined array is read by
	// reference and the message is only the token). recv* mirror the
	// layout for the upstream portion's boundaries.
	sendRegs  [][]grid.Region
	sendSizes [][]int
	sendTotal []int
	recvRegs  [][]grid.Region
	recvSizes [][]int
	recvTotal []int
}

// wavefront reports whether pl's block pipelines through the ranks.
func (pl *plan) wavefront() bool { return len(pl.pipeNames) > 0 && !pl.an.NeedsTemp() }

// cutSchedules materializes every rank's schedule of pl's sweep from regions and
// sizes alone: the one place tiles and upstream needs are cut. arm and
// Retune cut every plan; Program.Schedule cuts each block it emits.
func (s *Session) cutSchedules(pl *plan) {
	if !pl.wavefront() {
		return
	}
	lo, hi := s.activeSpan(pl)
	T := pl.steps()
	for rank := range pl.ranks {
		rb := &pl.ranks[rank]
		rb.sched = nil
		if rank < lo || rank > hi {
			continue
		}
		// Only ranks whose slabs intersect the block region take part in the
		// sweep; the active span is contiguous, so a peer is a pipeline
		// neighbour exactly when it lies inside it. Sender and receiver thus
		// always agree on the message schedule.
		upstream, downstream := rank-1, rank+1
		if pl.an.Loop.Dirs[pl.wDim] == grid.HighToLow {
			upstream, downstream = rank+1, rank-1
		}
		ep := &execPlan{
			upstream: upstream, downstream: downstream,
			hasUp:   upstream >= lo && upstream <= hi,
			hasDown: downstream >= lo && downstream <= hi,
			tiles:   make([]grid.Region, T),
			needUp:  make([]int, T),
			fields:  make([]*field.Field, len(pl.payload)),
		}
		for t := range T {
			ep.tiles[t] = pl.tileRegion(rb.portion, t)
			ep.needUp[t] = -1
			if ep.hasUp {
				ep.needUp[t] = pl.neededUpstream(t)
			}
		}
		if ep.hasDown {
			ep.sendRegs, ep.sendSizes, ep.sendTotal = pl.boundaries(rb.portion)
		}
		if ep.hasUp {
			ep.recvRegs, ep.recvSizes, ep.recvTotal = pl.boundaries(pl.ranks[upstream].portion)
		}
		rb.sched = ep
		rb.cuts++
	}
}

// boundaries lays out the boundary messages that leave portion L, one per
// step: each payload array's boundary region, its element count, and their
// sum.
func (pl *plan) boundaries(L grid.Region) (regs [][]grid.Region, sizes [][]int, total []int) {
	T := pl.steps()
	regs, sizes, total = make([][]grid.Region, T), make([][]int, T), make([]int, T)
	for t := range T {
		regs[t], sizes[t] = make([]grid.Region, len(pl.payload)), make([]int, len(pl.payload))
		for i, name := range pl.payload {
			regs[t][i] = pl.boundaryRegion(L, name, t)
			sizes[t][i] = regs[t][i].Size()
			total[t] += sizes[t][i]
		}
	}
	return regs, sizes, total
}

// block returns the rank's share of b's plan pl, bound to the Run's fields.
// Every Exec checks the scalars the block reads: when one has changed value
// since the block's kernels were lowered, the kept kernel and task graph
// are dropped, and kernelFor or taskGraphFor builds them again against the
// new value, as scan.Prepared.Run does. The rank's first Exec of the block
// in a Run — a restarted rank's too — also points the schedule's payload
// fields at its locals and re-binds the kept kernels in place, dropping
// what the locals do not fit (scan.Kernel.Rebind). releaseScratch lets go
// of them.
func (r *Rank) block(b *scan.Block, pl *plan) *rankBlock {
	rb := &pl.ranks[r.id]
	if rb.scalars.Changed(r.lenv) {
		rb.drop()
	}
	if rb.bound == r {
		return rb
	}
	rb.bound = r
	if ep := rb.sched; ep != nil {
		for i, name := range pl.payload {
			ep.fields[i] = r.locals[name]
		}
	}
	if rb.kern != nil && !rb.kern.Rebind(r.lenv) {
		rb.kern = nil
	}
	if rb.dag != nil && !rb.dag.Rebind(r.lenv) {
		rb.drop()
	}
	return rb
}

// drop lets go of the block's kernels and task graph, returning their
// leased registers.
func (rb *rankBlock) drop() {
	if rb.kern != nil {
		rb.kern.ReleaseScratch()
		rb.kern = nil
	}
	if rb.dag != nil {
		rb.dag.Close()
		rb.dag = nil
	}
}

// kernelFor returns the rank's static-schedule kernel for b: the kept one,
// which block re-bound, or — on the rank's first Exec of b, or after a
// change the kept one cannot follow — a new one, lowered against the Run's
// fields and kept.
func (r *Rank) kernelFor(b *scan.Block, pl *plan, rb *rankBlock) (*scan.Kernel, error) {
	if rb.kern != nil {
		return rb.kern, nil
	}
	kern, err := r.newKernel(b, pl)
	if err != nil {
		return nil, err
	}
	rb.kern = kern
	rb.builds++
	return kern, nil
}

// taskGraphFor returns the rank's task-DAG executor for b, as kernelFor
// does its kernel: the tile graph of the rank's portion on the rank's pool
// (started on first use), traced and metered as the session is, with a
// Rank.newKernel per worker (they share the rank's scratch pool shard).
func (r *Rank) taskGraphFor(b *scan.Block, pl *plan, rb *rankBlock) (*scan.TaskGraph, error) {
	if rb.dag != nil {
		return rb.dag, nil
	}
	s := r.sess
	if r.pool == nil {
		r.pool = taskdag.NewPool(s.workers)
	}
	tg, err := scan.NewTaskGraph([]taskdag.Spec{{Region: rb.portion, Loop: pl.an.Loop, UDVs: pl.an.UDVs}},
		taskdag.Options{Pool: r.pool, Trace: s.cfg.Trace, Metrics: s.cfg.Metrics, MetricsRank: r.id,
			TraceBase: trace.Layout{Procs: s.cfg.Procs, Workers: s.workers}.WorkerBase(r.id)},
		func(int, int) (*scan.Kernel, error) { return r.newKernel(b, pl) })
	if err != nil {
		return nil, err
	}
	rb.dag = tg
	rb.builds++
	return tg, nil
}

// releaseScratch lets go of the Run's fields when the rank's body ends,
// error paths included: the kept kernels, task graphs and reduction
// operands return their pool-leased registers and drop every field and
// data reference (a kernel that cannot — closures bake their fields in — is
// dropped itself), the schedules their fields, and the Rank its locals,
// marks, scalar overlay and endpoint. Nothing stops: the rank's goroutine
// and worker pool wait parked for the next Run.
func (r *Rank) releaseScratch() {
	clear(r.locals)
	clear(r.dirty)
	clear(r.wrote)
	clear(r.lenv.scalars)
	r.e = nil
	for _, pl := range r.sess.plans {
		rb := &pl.ranks[r.id]
		if rb.bound != r {
			continue
		}
		rb.bound = nil
		if rb.sched != nil {
			clear(rb.sched.fields)
		}
		if rb.kern != nil {
			rb.kern.ReleaseScratch()
			if !rb.kern.Rebind(nil) {
				rb.kern = nil
			}
		}
		if rb.dag != nil {
			rb.dag.ReleaseScratch()
			if !rb.dag.Rebind(nil) {
				rb.drop()
			}
		}
	}
	for _, rr := range r.reducers {
		if rr.bound == r {
			rr.fold.ReleaseScratch()
			rr.fold.Rebind(nil)
			rr.bound = nil
		}
	}
}
