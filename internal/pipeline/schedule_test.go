package pipeline

import (
	"errors"
	"fmt"
	"maps"
	"testing"

	"wavefront/internal/comm"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/machine"
	"wavefront/internal/scan"
	"wavefront/internal/trace"
	"wavefront/internal/workload"
)

// scheduleFamily is one family of `wavebench -validate` at a small n: its
// arrays, its domain and every block it runs.
type scheduleFamily struct {
	name   string
	env    *expr.MapEnv
	domain grid.Region
	blocks []*scan.Block
}

func scheduleFamilies(t *testing.T) []scheduleFamily {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	tom, err := workload.NewTomcatv(16, field.RowMajor)
	must(err)
	simple, err := workload.NewSimple(16, field.RowMajor)
	must(err)
	sweep, err := workload.NewSweep(8, 3, field.RowMajor)
	must(err)
	var octants []*scan.Block
	for _, dirs := range sweep.Octants() {
		octants = append(octants, sweep.OctantBlock(dirs))
	}
	sw, err := workload.NewSW(16, 7, field.RowMajor)
	must(err)
	lu, err := workload.NewLU(12, 3, field.RowMajor)
	must(err)
	chol, err := workload.NewCholesky(12, 3, field.RowMajor)
	must(err)
	multi, err := workload.NewMultiOctant(16, 2, field.RowMajor)
	must(err)
	return []scheduleFamily{
		{"tomcatv", tom.Env, tom.All, tom.Blocks()},
		{"simple", simple.Env, simple.All, simple.Blocks()},
		{"sweep3d", sweep.Env, sweep.Inner, octants},
		{"sw", sw.Env, sw.All, sw.Blocks()},
		{"lu", lu.Env, lu.All, lu.Blocks()},
		{"cholesky", chol.Env, chol.All, chol.Blocks()},
		{"multioct", multi.Env, multi.All, multi.Blocks()},
	}
}

// link is one directed pipeline link, sender to receiver.
type link struct{ from, to int }

// scheduleCounts is what a schedule says a run does: its tasks, and per
// link its messages and their elements.
func scheduleCounts(d *machine.DAG) (tasks int, msgs, elems map[link]int) {
	msgs, elems = map[link]int{}, map[link]int{}
	for _, task := range d.Tasks {
		for _, dep := range task.Deps {
			if from := d.Tasks[dep.Task].Proc; dep.Elems > 0 && from != task.Proc {
				msgs[link{from, task.Proc}]++
				elems[link{from, task.Proc}] += dep.Elems
			}
		}
	}
	return len(d.Tasks), msgs, elems
}

// traceCounts is what a traced run did: its compute events that are tiles
// of a block, per link its boundary sends and their elements, and its halo
// exchanges.
func traceCounts(evs []trace.Event) (tiles int, msgs, elems map[link]int, exchanges int) {
	msgs, elems = map[link]int{}, map[link]int{}
	for _, ev := range evs {
		switch {
		case ev.Kind == trace.KindCompute && ev.Tile >= 0:
			tiles++
		case ev.Kind == trace.KindWaveSend:
			msgs[link{ev.Rank, ev.Peer}]++
			elems[link{ev.Rank, ev.Peer}] += ev.Elems
		case ev.Kind == trace.KindExchange:
			exchanges++
		}
	}
	return tiles, msgs, elems, exchanges
}

func sum(m map[link]int) (n int64) {
	for _, v := range m {
		n += int64(v)
	}
	return n
}

// checkSchedule holds the schedule cfg and blocks give to what the traced
// run under cfg measured. The schedule costs the paper's payloads: every
// pipelined array's boundary rows. A run that carried only moved of the all
// pipelined halo rows a message would hold — the rest read by reference —
// is held to that share of the schedule's elements. A schedule refused for
// a halo refresh must belong to a run that exchanged halos.
func checkSchedule(t *testing.T, cfg Config, blocks []*scan.Block, comm SessionStats, moved, all int) {
	t.Helper()
	if n := cfg.Trace.Dropped(); n != 0 {
		t.Fatalf("trace dropped %d events", n)
	}
	tiles, runMsgs, runElems, exchanges := traceCounts(cfg.Trace.Events())
	cfg.Trace = nil
	prog, err := NewProgram(blocks...)
	if err != nil {
		t.Fatal(err)
	}
	d, err := prog.Schedule(cfg)
	if se := (*ScheduleError)(nil); errors.As(err, &se) && se.Block >= 0 && exchanges > 0 {
		return
	}
	if err != nil {
		t.Fatalf("%v (the run exchanged halos %d times)", err, exchanges)
	}
	tasks, msgs, elems := scheduleCounts(d)
	for l, e := range elems {
		elems[l] = e / all * moved
	}
	if tasks != tiles {
		t.Errorf("schedule has %d tasks, the run %d compute events of a tile", tasks, tiles)
	}
	if sum(msgs) != comm.Comm.Messages || sum(elems) != comm.Comm.Elements {
		t.Errorf("schedule moves %d messages / %d elements, the run %d / %d",
			sum(msgs), sum(elems), comm.Comm.Messages, comm.Comm.Elements)
	}
	if !maps.Equal(msgs, runMsgs) || !maps.Equal(elems, runElems) {
		t.Errorf("per link the schedule sends %v messages / %v elements, the run %v / %v", msgs, elems, runMsgs, runElems)
	}
}

// carried returns the pipelined halo depths, summed over b's pipelined
// arrays, that the messages of a one-shot Run of b under cfg carry (moved)
// and that the paper's would (all): on the in-process transport the arrays
// every rank reads by reference travel as the token alone.
func carried(t *testing.T, b *scan.Block, env expr.Env, cfg Config) (moved, all int) {
	t.Helper()
	sess, err := oneBlockSession(b, env, cfg, -1, -1)
	if err == nil {
		err = sess.arm()
	}
	if err != nil {
		t.Fatal(err)
	}
	pl := sess.plans[b]
	for _, name := range pl.pipeNames {
		all += pl.pipeArrays[name]
	}
	for _, name := range pl.payload {
		moved += pl.pipeArrays[name]
	}
	return moved, all
}

// TestScheduleMatchesRun holds the schedule the simulator costs to what the
// runtime does, for every block of the seven -validate families at p = 2, 3,
// naive and narrowly tiled, over the in-process and the unix transport: its
// task count to the traced run's compute events of a tile, its messages to
// the run's comm stats and per-link boundary sends by (rank, peer), and its
// elements likewise — all of them over the socket, and on the in-process
// transport all but the rows of arrays read by reference. A block runs as a
// one-shot Run when Run takes it — the schedule is then over the block's
// region along the dimension Run chose — and otherwise (a plain
// multi-statement or temporary-needing block, or a region too thin for p
// ranks of its own) alone in a session over its family's domain. The
// Tomcatv and SIMPLE forward+backward pairs, the sweeps fig7 simulates, run
// as two-block sessions.
func TestScheduleMatchesRun(t *testing.T) {
	for _, fam := range scheduleFamilies(t) {
		for _, p := range []int{2, 3} {
			for _, width := range []int{0, 3} {
				t.Run(fmt.Sprintf("%s/p%d/b%d", fam.name, p, width), func(t *testing.T) {
					for _, kind := range []comm.TransportKind{comm.TransportChan, comm.TransportUnix} {
						for i, b := range fam.blocks {
							cfg := Config{Procs: p, Block: width, Trace: trace.New(p, 1<<12), Transport: comm.TransportConfig{Kind: kind}}
							st, err := Run(b, fam.env, cfg)
							if err == nil {
								moved, all := carried(t, b, fam.env, cfg)
								cfg.Domain, cfg.WavefrontDim = b.Region, st.WavefrontDim
								checkSchedule(t, cfg, []*scan.Block{b}, st.SessionStats, moved, all)
								continue
							}
							cfg.Trace.Reset()
							cfg.Domain = fam.domain
							sess, err := NewSession(fam.env, []*scan.Block{b}, cfg)
							if err == nil {
								err = sess.Run(func(r *Rank) error { return r.Exec(b) })
								sess.Close()
							}
							if err != nil {
								t.Fatalf("block %d over %v: %v", i, kind, err)
							}
							checkSchedule(t, cfg, []*scan.Block{b}, sess.Stats(), 1, 1)
						}
					}
				})
			}
		}
	}
	tom, err := workload.NewTomcatv(16, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	simple, err := workload.NewSimple(16, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []scheduleFamily{
		{"tomcatv", tom.Env, tom.All, []*scan.Block{tom.ForwardBlock(), tom.BackwardBlock()}},
		{"simple", simple.Env, simple.All, []*scan.Block{simple.ForwardSweepBlock(), simple.BackwardSweepBlock()}},
	} {
		for _, p := range []int{2, 3} {
			for _, width := range []int{0, 3} {
				t.Run(fmt.Sprintf("%s-sweeps/p%d/b%d", fam.name, p, width), func(t *testing.T) {
					cfg := Config{Procs: p, Domain: fam.domain, Block: width, Trace: trace.New(p, 1<<12)}
					sess, err := NewSession(fam.env, fam.blocks, cfg)
					if err == nil {
						err = sess.Run(func(r *Rank) error {
							for _, b := range fam.blocks {
								if err := r.Exec(b); err != nil {
									return err
								}
							}
							return nil
						})
					}
					if err != nil {
						t.Fatal(err)
					}
					checkSchedule(t, cfg, fam.blocks, sess.Stats(), 1, 1)
				})
			}
		}
	}
}
