package pipeline

import (
	"fmt"
	"slices"

	"wavefront/internal/dep"
	"wavefront/internal/grid"
	"wavefront/internal/machine"
	"wavefront/internal/scan"
)

// A Program is a block sequence a Session body executes once each, in
// order, analyzed once so Schedule can emit its static schedule under any
// number of configurations.
type Program struct {
	blocks   []*scan.Block
	analyses []*scan.Analysis // nil for a plain group, analyzed statement by statement
}

// NewProgram analyzes blocks as a Session registering them does.
func NewProgram(blocks ...*scan.Block) (*Program, error) {
	p := &Program{blocks: blocks, analyses: make([]*scan.Analysis, len(blocks))}
	for i, b := range blocks {
		if b.Kind == scan.PlainKind && len(b.Stmts) > 1 {
			continue
		}
		var err error
		if p.analyses[i], err = scan.Analyze(b, dep.Preference{PreferLow: true}); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// ScheduleError is Schedule's refusal of a configuration (Block -1) or of
// the program's Block-th block.
type ScheduleError struct {
	Block  int
	Reason string
}

func (e *ScheduleError) Error() string {
	if e.Block < 0 {
		return "pipeline: no static schedule: " + e.Reason
	}
	return fmt.Sprintf("pipeline: no static schedule for block %d: %s", e.Block, e.Reason)
}

// Schedule returns the static schedule a Session over cfg runs for the
// program, as the task DAG machine.Params costs. It reads cfg's Procs,
// Domain, WavefrontDim and Block and derives the rest as the ranks do —
// slabs, plans, portions and each rank's schedule, cut by the session's own
// cutSchedules — from sizes alone, with no environment. A wavefront block
// is one task per (active rank, tile), depending on each upstream boundary
// message the rank receives before the tile, weighted by its elements; any
// other block is one task per rank. Tasks on a rank run in submission order.
//
// It refuses with a *ScheduleError the task-DAG scheduler, which cuts
// portions at run time, and a block that refreshes halo rows an earlier
// block (or statement of a plain group) dirtied: those rows span the
// arrays' storage, which it does not know.
func (p *Program) Schedule(cfg Config) (*machine.DAG, error) {
	if cfg.Scheduler == scan.SchedTaskDAG {
		return nil, &ScheduleError{-1, "the task-DAG scheduler cuts each rank's portion at run time"}
	}
	s, err := newSession(nil, cfg)
	if err != nil {
		return nil, err
	}
	d := machine.NewDAG(cfg.Procs)
	dirty := map[string]uint8{}
	for i, b := range p.blocks {
		if err := s.register(b, p.analyses[i]); err != nil {
			return nil, err
		}
		leaves := []*scan.Block{b}
		if subs, ok := s.subBlocks[b]; ok {
			leaves = subs
		}
		for _, leaf := range leaves {
			pl := s.plans[leaf]
			for side, names := range pl.refresh {
				for _, name := range names {
					if cfg.Procs > 1 && dirty[name]&(1<<side) != 0 {
						return nil, &ScheduleError{i, fmt.Sprintf("it refreshes the halo of %q, which an earlier block wrote", name)}
					}
				}
			}
			s.emit(d, pl)
			for name := range pl.written {
				dirty[name] = dirtyBoth
			}
		}
	}
	return d, nil
}

// emit appends the tasks of one block, planned as pl, to d: each active
// rank's schedule, as cutSchedules cut it for the ranks.
func (s *Session) emit(d *machine.DAG, pl *plan) {
	if !pl.wavefront() {
		for r := range pl.ranks {
			d.Add(machine.Task{Proc: r, Elems: float64(pl.ranks[r].portion.Size())})
		}
		return
	}
	s.cutSchedules(pl)
	T := pl.steps()
	lo, hi := s.activeSpan(pl)
	d.Tasks = slices.Grow(d.Tasks, (hi-lo+1)*T)
	deps := make([]machine.Dep, 0, (hi-lo)*T) // every downstream rank receives T messages
	up, ids := make([]machine.TaskID, T), make([]machine.TaskID, T)
	for k := range hi - lo + 1 {
		r := lo + k
		if pl.an.Loop.Dirs[pl.wDim] == grid.HighToLow {
			r = hi - k
		}
		ep := pl.ranks[r].sched
		recvd := 0
		for t, tile := range ep.tiles {
			first := len(deps)
			for ; recvd <= ep.needUp[t]; recvd++ {
				deps = append(deps, machine.Dep{Task: up[recvd], Elems: ep.recvTotal[recvd]})
			}
			ids[t] = d.Add(machine.Task{Proc: r, Elems: float64(tile.Size()), Deps: deps[first:len(deps):len(deps)]})
		}
		up, ids = ids, up
	}
}
