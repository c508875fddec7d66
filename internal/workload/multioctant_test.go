package workload

import (
	"errors"
	"testing"

	"wavefront/internal/field"
	"wavefront/internal/pipeline"
	"wavefront/internal/scan"
	"wavefront/internal/taskdag"
)

// TestMultiOctantMatchesReference: sequential, grouped-static, and merged
// task-DAG execution must all reproduce the oracle bit for bit, for 2 and
// 4 octants.
func TestMultiOctantMatchesReference(t *testing.T) {
	opts := []struct {
		name string
		opt  scan.ExecOptions
	}{
		{"static", scan.ExecOptions{}},
		{"closure", scan.ExecOptions{Engine: scan.EngineClosure}},
		{"taskdag-w1", scan.ExecOptions{Scheduler: scan.SchedTaskDAG, Workers: 1}},
		{"taskdag-w2", scan.ExecOptions{Scheduler: scan.SchedTaskDAG, Workers: 2}},
		{"taskdag-w4", scan.ExecOptions{Scheduler: scan.SchedTaskDAG, Workers: 4}},
	}
	for _, k := range []int{2, 4} {
		w, err := NewMultiOctant(24, k, field.RowMajor)
		if err != nil {
			t.Fatal(err)
		}
		ref := w.Reference()
		for _, o := range opts {
			for _, grouped := range []bool{false, true} {
				w.Reset()
				var runErr error
				if grouped {
					runErr = w.Run(o.opt)
				} else {
					runErr = w.RunSequential(o.opt)
				}
				if runErr != nil {
					t.Fatalf("k=%d %s grouped=%v: %v", k, o.name, grouped, runErr)
				}
				for _, name := range MultiOctantArrays(k) {
					if d := w.Env.Arrays[name].MaxAbsDiff(w.Inner, ref[name]); d != 0 {
						t.Errorf("k=%d %s grouped=%v: %s differs from oracle by %g", k, o.name, grouped, name, d)
					}
				}
			}
		}
	}
}

// TestMultiOctantGroupMergesGraphs pins that the grouped task-DAG run
// actually merges the octants into one multi-graph (Subs == K) instead of
// falling back to sequential per-block graphs.
func TestMultiOctantGroupMergesGraphs(t *testing.T) {
	w, err := NewMultiOctant(16, 2, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	var subs []int
	restore := scan.SetTaskDAGHook(func(g *taskdag.Graph) { subs = append(subs, g.Subs()) })
	defer restore()
	if err := w.Run(scan.ExecOptions{Scheduler: scan.SchedTaskDAG, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	merged := 0
	for _, s := range subs {
		if s == 2 {
			merged++
		}
	}
	if merged != 1 {
		t.Fatalf("expected exactly one merged 2-sub graph, hook saw subs %v", subs)
	}
}

// TestMultiOctantGroupValidation: a group whose blocks are NOT independent
// (two octants writing the same array) must be rejected before executing.
func TestMultiOctantGroupValidation(t *testing.T) {
	w, err := NewMultiOctant(16, 2, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	bad := []*scan.Block{w.octBlocks[0], w.octBlocks[0]}
	if err := scan.ExecGroup(bad, w.Env, scan.ExecOptions{}); err == nil {
		t.Fatal("group with overlapping writes was not rejected")
	}
	// Reads of another block's written array are also a violation.
	mixed := []*scan.Block{w.octBlocks[0], w.CombineBlock()}
	if err := scan.ExecGroup(mixed, w.Env, scan.ExecOptions{}); err == nil {
		t.Fatal("group with a read-write overlap was not rejected")
	}
}

// TestMultiOctantSession: the full program through the pipelined session at
// p=1/2/4 under both schedulers, via ExecGroup — independence checked, then
// the octants back to back, their waves overlapping across ranks.
func TestMultiOctantSession(t *testing.T) {
	scheds := []struct {
		name    string
		sched   scan.Scheduler
		workers int
	}{
		{"static", scan.SchedStatic, 0},
		{"taskdag-w2", scan.SchedTaskDAG, 2},
	}
	for _, k := range []int{2, 4} {
		ref, err := NewMultiOctant(24, k, field.RowMajor)
		if err != nil {
			t.Fatal(err)
		}
		oracle := ref.Reference()
		for _, sc := range scheds {
			for _, p := range []int{1, 2, 4} {
				w, _ := NewMultiOctant(24, k, field.RowMajor)
				sess, err := pipeline.NewSession(w.Env, w.Blocks(), pipeline.SessionConfig{
					Procs: p, Domain: w.All, Block: 6,
					Scheduler: sc.sched, Workers: sc.workers,
				})
				if err != nil {
					t.Fatalf("k=%d %s p=%d: %v", k, sc.name, p, err)
				}
				err = sess.Run(func(r *pipeline.Rank) error {
					if err := r.ExecGroup(w.OctantBlocks()); err != nil {
						return err
					}
					return r.Exec(w.CombineBlock())
				})
				if err != nil {
					t.Fatalf("k=%d %s p=%d: %v", k, sc.name, p, err)
				}
				for _, name := range MultiOctantArrays(k) {
					if d := w.Env.Arrays[name].MaxAbsDiff(w.Inner, oracle[name]); d != 0 {
						t.Errorf("k=%d %s p=%d: %s differs from oracle by %g", k, sc.name, p, name, d)
					}
				}
			}
		}
	}
}

// TestMultiOctantVaryingGroups runs groups that share their leading block
// in one body — [o0,o1], [o0,o2], [o0,o3] (re-sweeping an octant is
// idempotent) — and demands the reference: every group must execute the
// blocks it was given. An executor cached per group under its first block,
// as the session's merged-group graph once was, would run [o0,o1] three
// times and leave flux2 and flux3 at zero.
func TestMultiOctantVaryingGroups(t *testing.T) {
	ref, err := NewMultiOctant(24, 4, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	oracle := ref.Reference()
	for _, c := range []struct {
		name    string
		procs   int
		sched   scan.Scheduler
		workers int
	}{
		{"p1-taskdag-w2", 1, scan.SchedTaskDAG, 2},
		{"p2-static", 2, scan.SchedStatic, 0},
	} {
		w, _ := NewMultiOctant(24, 4, field.RowMajor)
		sess, err := pipeline.NewSession(w.Env, w.Blocks(), pipeline.SessionConfig{
			Procs: c.procs, Domain: w.All, Block: 6,
			Scheduler: c.sched, Workers: c.workers,
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		err = sess.Run(func(r *pipeline.Rank) error {
			oct := w.OctantBlocks()
			// The combine pass reads what the octant writes: refused before
			// anything executes.
			if err := r.ExecGroup([]*scan.Block{oct[0], w.CombineBlock()}); err == nil {
				return errors.New("a group whose second block reads the first block's output was accepted")
			}
			for _, other := range oct[1:] {
				if err := r.ExecGroup([]*scan.Block{oct[0], other}); err != nil {
					return err
				}
			}
			return r.Exec(w.CombineBlock())
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, name := range MultiOctantArrays(4) {
			if d := w.Env.Arrays[name].MaxAbsDiff(w.Inner, oracle[name]); d != 0 {
				t.Errorf("%s: %s differs from oracle by %g", c.name, name, d)
			}
		}
	}
}

// TestMultiOctantCorruptDependencyCaught is the family's intentional-break
// drill: falsify one dependency counter inside the MERGED multi-graph (the
// last tile of the final octant's sub-graph) and require the differential
// oracle to catch the stale read.
func TestMultiOctantCorruptDependencyCaught(t *testing.T) {
	w, err := NewMultiOctant(16, 2, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	ref := w.Reference()
	restore := scan.SetTaskDAGHook(func(g *taskdag.Graph) {
		if g.Subs() != 2 {
			return // only corrupt the merged octant graph
		}
		// Octant 1's row-major-last tile is its seed corner (in-degree 0,
		// uncorruptible); octant 0 travels (+,+) so ITS row-major-last tile
		// is a sink with real predecessors — the last tile sub 0 owns.
		for tl := g.Tiles() - 1; tl >= 0; tl-- {
			if g.SubOf(tl) == 0 {
				if err := g.CorruptCounter(tl); err != nil {
					t.Error(err)
				}
				return
			}
		}
	})
	defer restore()
	if err := w.Run(scan.ExecOptions{Scheduler: scan.SchedTaskDAG, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	diff := 0.0
	for _, name := range []string{"flux0", "flux1"} {
		if d := w.Env.Arrays[name].MaxAbsDiff(w.Inner, ref[name]); d > diff {
			diff = d
		}
	}
	if diff == 0 {
		t.Fatal("corrupted tile dependency in the merged graph produced bit-identical flux")
	}
}
