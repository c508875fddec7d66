package pipeline

import (
	"fmt"

	"wavefront/internal/dep"
	"wavefront/internal/grid"
	"wavefront/internal/scan"
	"wavefront/internal/taskdag"
)

// groupDAG is one rank's cached merged executor for a group of mutually
// independent blocks: one taskdag multi-graph over all their portions plus
// one kernel per (block, worker).
type groupDAG struct {
	g       *taskdag.Graph
	kernels [][]*scan.Kernel
	loops   []dep.LoopSpec
	elems   int
}

func (gd *groupDAG) close() {
	gd.g.Stop()
	for _, ks := range gd.kernels {
		for _, k := range ks {
			k.ReleaseScratch()
		}
	}
}

// ExecGroup runs several mutually independent blocks as one unit. On a
// single-rank task-DAG session the blocks' tile graphs merge onto one
// work-stealing pool, so counter-propagating wavefronts fill each other's
// ramp-up and ramp-down idle time. On multi-rank sessions (or under the
// static scheduler) the blocks execute back to back — independence still
// lets successive sweeps overlap across ranks, because a downstream rank
// starts the next block's wave while upstream ranks finish the previous
// one, without any barrier in between.
func (r *Rank) ExecGroup(blocks []*scan.Block) error {
	if len(blocks) == 0 {
		return nil
	}
	if len(blocks) == 1 {
		return r.Exec(blocks[0])
	}
	if err := scan.CheckGroupIndependent(blocks); err != nil {
		return err
	}
	merged := r.sess.cfg.Procs == 1 && r.sess.cfg.Scheduler == scan.SchedTaskDAG
	pls := make([]*plan, 0, len(blocks))
	for _, b := range blocks {
		if _, ok := r.sess.subBlocks[b]; ok {
			merged = false
			continue
		}
		pl, ok := r.sess.plans[b]
		if !ok {
			return fmt.Errorf("pipeline: block %p was not registered with the session", b)
		}
		if pl.an.NeedsTemp() || len(pl.pipeNames) != 0 {
			merged = false
		}
		pls = append(pls, pl)
	}
	if !merged {
		for _, b := range blocks {
			if err := r.Exec(b); err != nil {
				return err
			}
		}
		return nil
	}
	if skip, err := r.ckOp(); err != nil || skip {
		return err
	}
	gd, err := r.groupDAGFor(blocks, pls)
	if err != nil {
		return err
	}
	sp := r.begin()
	gd.g.Run()
	r.computed(sp, gd.elems, -1, -1, -1, -1)
	for _, pl := range pls {
		for name := range pl.written {
			r.dirty[name] = true
			r.wrote[name] = true
		}
	}
	return nil
}

// groupDAGFor returns the rank's cached merged executor for the group,
// building the multi-graph and per-(block, worker) kernels on first use.
// The cache key is the group's first block: a body that varies group
// composition under the same leading block is not supported.
func (r *Rank) groupDAGFor(blocks []*scan.Block, pls []*plan) (*groupDAG, error) {
	if gd, ok := r.groupDags[blocks[0]]; ok {
		return gd, nil
	}
	specs := make([]taskdag.Spec, len(blocks))
	elems := 0
	for i, b := range blocks {
		L := r.portion(b)
		specs[i] = taskdag.Spec{Region: L, Loop: pls[i].an.Loop, UDVs: pls[i].an.UDVs}
		elems += L.Size() * len(b.Stmts)
	}
	g, err := taskdag.NewMulti(specs, r.dagOptions())
	if err != nil {
		return nil, err
	}
	gd := &groupDAG{g: g, kernels: make([][]*scan.Kernel, len(blocks)), loops: make([]dep.LoopSpec, len(blocks)), elems: elems}
	for i, b := range blocks {
		gd.loops[i] = pls[i].an.Loop
		gd.kernels[i] = make([]*scan.Kernel, g.Workers())
		for w := range gd.kernels[i] {
			if gd.kernels[i][w], err = r.newKernel(b, pls[i]); err != nil {
				g.Stop()
				return nil, err
			}
		}
	}
	g.SetRunnerSub(func(worker, sub int, tile grid.Region) {
		gd.kernels[sub][worker].Run(tile, gd.loops[sub])
	})
	if taskdagHook != nil {
		taskdagHook(g)
	}
	if r.groupDags == nil {
		r.groupDags = map[*scan.Block]*groupDAG{}
	}
	r.groupDags[blocks[0]] = gd
	return gd, nil
}
