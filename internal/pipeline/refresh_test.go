package pipeline

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/scan"
	"wavefront/internal/workload"
)

// Tests of the halo refresh: which (array, side) pairs a block exchanges
// before it runs, that those are enough and no more than its references
// justify, and that the one-way messages they become keep every rank's tag
// counters in step.

// refreshFamily is one workload family as a session program: the arrays,
// the domain, the blocks one pass executes, and how many passes to run
// (the second and later passes start with every written array dirty).
type refreshFamily struct {
	name   string
	env    *expr.MapEnv
	domain grid.Region
	blocks []*scan.Block
	passes int
}

// refreshFamilies builds a fresh instance of each of the six families.
func refreshFamilies(t *testing.T) []refreshFamily {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	tom, err := workload.NewTomcatv(26, field.RowMajor)
	must(err)
	simple, err := workload.NewSimple(24, field.RowMajor)
	must(err)
	sweep, err := workload.NewSweep(10, 3, field.RowMajor)
	must(err)
	var octants []*scan.Block
	for _, dirs := range sweep.Octants() {
		octants = append(octants, sweep.OctantBlock(dirs))
	}
	sw, err := workload.NewSW(24, 7, field.RowMajor)
	must(err)
	lu, err := workload.NewLU(14, 3, field.RowMajor)
	must(err)
	multi, err := workload.NewMultiOctant(20, 4, field.RowMajor)
	must(err)
	return []refreshFamily{
		{"tomcatv", tom.Env, tom.All, tom.Blocks(), 2},
		{"simple", simple.Env, simple.All, simple.Blocks(), 2},
		{"sweep3d", sweep.Env, sweep.All, octants, 1},
		// The second fill starts from a dirty s: its diagonal read then
		// needs the boundary column of the rows above refreshed.
		{"sw", sw.Env, sw.All, sw.Blocks(), 2},
		{"lu", lu.Env, lu.All, lu.Blocks(), 1},
		{"multioctant", multi.Env, multi.All, multi.Blocks(), 2},
	}
}

// leafPlans returns the plans Exec(b) runs, in order: b's own, or its
// statements' for a statement-at-a-time plain block.
func leafPlans(s *Session, b *scan.Block) ([]*scan.Block, []*plan) {
	leaves := []*scan.Block{b}
	if subs, ok := s.subBlocks[b]; ok {
		leaves = subs
	}
	plans := make([]*plan, len(leaves))
	for i, leaf := range leaves {
		plans[i] = s.plans[leaf]
	}
	return leaves, plans
}

type sidedName struct {
	name string
	side int
}

func (sn sidedName) String() string {
	return fmt.Sprintf("%s/%s", sn.name, [2]string{"neg", "pos"}[sn.side])
}

// shiftedRef is one reference of a leaf block that is shifted along the
// wavefront dimension: the halo it points at, and whether wave messages
// could supply it — a true dependence (primed, or of an array an earlier
// statement writes) that points upstream and is not shifted sideways out
// of the columns a boundary message carries.
type shiftedRef struct {
	name     string
	sw       int
	side     int
	pureWave bool
}

func shiftedRefs(leaf *scan.Block, pl *plan, w int) []shiftedRef {
	travelLow := pl.an.Loop.Dirs[w] == grid.LowToHigh
	writers := leaf.Writers()
	var out []shiftedRef
	for si, st := range leaf.Stmts {
		for _, ref := range expr.Refs(st.RHS) {
			if ref.Shift == nil || ref.Shift[w] == 0 {
				continue
			}
			sw := ref.Shift[w]
			trueDep := ref.Primed
			for _, wi := range writers[ref.Name] {
				trueDep = trueDep || wi < si
			}
			upstream := (travelLow && sw < 0) || (!travelLow && sw > 0)
			sideways := false
			for d, c := range ref.Shift {
				sideways = sideways || (d != w && c != 0)
			}
			side := sideNeg
			if sw > 0 {
				side = sidePos
			}
			out = append(out, shiftedRef{ref.Name, sw, side, trueDep && upstream && !sideways})
		}
	}
	return out
}

// haloReads walks one leaf block row by row along the wavefront dimension —
// no plan, no slab arithmetic beyond "who owns this row" — and returns the
// (array, side) pairs some rank reads from another rank's rows without a
// wave message supplying them: the reference is not one wave messages could
// supply, or the row it reads lies outside the region.
func haloReads(s *Session, leaf *scan.Block, pl *plan) map[sidedName]bool {
	w := s.cfg.WavefrontDim
	owner := func(row int) int {
		for i, slab := range s.slabs {
			if slab.Dim(w).Contains(row) {
				return i
			}
		}
		return -1 // storage beyond the domain: scattered once, owned by nobody
	}
	ext := leaf.Region.Dim(w)
	out := map[sidedName]bool{}
	for _, ref := range shiftedRefs(leaf, pl, w) {
		for row := ext.Lo; row <= ext.Hi; row++ {
			from := owner(row + ref.sw)
			if from < 0 || from == owner(row) {
				continue
			}
			if !(ref.pureWave && ext.Contains(row+ref.sw)) {
				out[sidedName{ref.name, ref.side}] = true
			}
		}
	}
	return out
}

// TestRefreshMatchesHaloReads: over the six families' blocks at p = 2, 3
// and 4, what a block refreshes is what its statements read from exchanged
// halo rows. Enough: every cross-rank read no wave message supplies is on
// the list (for a statement-at-a-time group, on its first statement's, which
// carries the union). No more: every listed pair is a shifted reference of
// the block on that side that is not a pure upstream true dependence — or is
// one that the row walk shows leaving the region across a slab boundary.
func TestRefreshMatchesHaloReads(t *testing.T) {
	for _, p := range []int{2, 3, 4} {
		for _, fam := range refreshFamilies(t) {
			sess, err := NewSession(fam.env, fam.blocks, SessionConfig{Procs: p, Domain: fam.domain, Block: 4})
			if err != nil {
				t.Fatalf("%s p=%d: %v", fam.name, p, err)
			}
			w := sess.cfg.WavefrontDim
			for bi, b := range fam.blocks {
				leaves, plans := leafPlans(sess, b)
				groupReads := map[sidedName]bool{}
				for i, leaf := range leaves {
					reads := haloReads(sess, leaf, plans[i])
					for sn := range reads {
						groupReads[sn] = true
						if !slices.Contains(plans[i].refresh[sn.side], sn.name) {
							t.Errorf("%s p=%d block %d stmt %d: reads %v across a slab boundary but does not refresh it\n%s",
								fam.name, p, bi, i, sn, leaf)
						}
					}
				}
				for sn := range groupReads {
					if len(leaves) > 1 && !slices.Contains(plans[0].refresh[sn.side], sn.name) {
						t.Errorf("%s p=%d block %d: the group's first statement does not refresh %v", fam.name, p, bi, sn)
					}
				}
				// Tightness, leaf by leaf (the first leaf of a group is held to
				// the whole group's references).
				for i, pl := range plans {
					justify := leaves[i : i+1]
					if i == 0 {
						justify = leaves
					}
					for side, names := range pl.refresh {
						if !slices.IsSorted(names) || len(slices.Compact(slices.Clone(names))) != len(names) {
							t.Errorf("%s p=%d block %d: refresh list %v is not sorted and distinct", fam.name, p, bi, names)
						}
						for _, name := range names {
							if !refreshJustified(sess, justify, sidedName{name, side}, w) {
								t.Errorf("%s p=%d block %d stmt %d: refreshes %v, which no reference of it reads from an exchanged halo\n%s",
									fam.name, p, bi, i, sidedName{name, side}, b)
							}
						}
					}
				}
			}
		}
	}
}

// refreshJustified reports whether some reference of the leaves reads sn's
// halo as exchanged: shifted to that side, and either not one wave messages
// could supply or one the row walk finds outside them.
func refreshJustified(s *Session, leaves []*scan.Block, sn sidedName, w int) bool {
	for _, leaf := range leaves {
		pl := s.plans[leaf]
		if haloReads(s, leaf, pl)[sn] {
			return true
		}
		for _, ref := range shiftedRefs(leaf, pl, w) {
			if ref.name == sn.name && ref.side == sn.side && !ref.pureWave {
				return true
			}
		}
	}
	return false
}

// TestRefreshListsPinned writes the lists out for the blocks the design
// argues from, so a change of rule shows as a changed line here.
func TestRefreshListsPinned(t *testing.T) {
	type lists = [2][]string
	check := func(t *testing.T, what string, got, want lists) {
		t.Helper()
		for side := range want {
			if !slices.Equal(got[side], want[side]) {
				t.Errorf("%s: refresh %s = %v, want %v", what, [2]string{"neg", "pos"}[side], got[side], want[side])
			}
		}
	}
	none := lists{}

	tom, err := workload.NewTomcatv(26, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	blocks := tom.Blocks()
	sess, err := NewSession(tom.Env, blocks, SessionConfig{Procs: 2, Domain: tom.All, Block: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		name  string
		first lists // the block's own, or its first statement's (the group's union)
		later []lists
	}{
		// rx := lap(x); ry := lap(y): one rendezvous moves both.
		{"residual", lists{{"x", "y"}, {"x", "y"}}, []lists{{{"y"}, {"y"}}}},
		// aa reads x@east/west only; dd reads y@north/south.
		{"coefficient", lists{{"y"}, {"y"}}, []lists{{{"y"}, {"y"}}}},
		// d, rx, ry @north are primed (wave messages); aa@north is not.
		{"forward", lists{{"aa"}, nil}, nil},
		// rx, ry @south are primed, nothing else is shifted.
		{"backward", none, nil},
		{"update", none, []lists{none}},
	} {
		_, plans := leafPlans(sess, blocks[i])
		if len(plans) != 1+len(c.later) {
			t.Fatalf("tomcatv %s: %d leaf plans, want %d", c.name, len(plans), 1+len(c.later))
		}
		check(t, "tomcatv "+c.name, plans[0].refresh, c.first)
		for k, want := range c.later {
			check(t, fmt.Sprintf("tomcatv %s stmt %d", c.name, k+1), plans[k+1].refresh, want)
		}
	}

}

// TestRefreshListsSW pins the diagonal case: s'@nw is a true dependence,
// but at the first column it reads the boundary column of the row above,
// which no wave message carries.
func TestRefreshListsSW(t *testing.T) {
	sw, err := workload.NewSW(24, 7, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	blk := sw.Block()
	sess, err := NewSession(sw.Env, []*scan.Block{blk}, SessionConfig{Procs: 2, Domain: sw.All, Block: 4})
	if err != nil {
		t.Fatal(err)
	}
	got := sess.plans[blk].refresh
	if !slices.Equal(got[sideNeg], []string{"s"}) || len(got[sidePos]) != 0 {
		t.Errorf("sw refresh = %v, want neg [s] (the diagonal's edge column) and no pos", got)
	}
}

// sessionProgram runs passes x blocks through a p-rank session, calling
// before (when non-nil) on every rank ahead of each block, and returns the
// session for its statistics.
func sessionProgram(t *testing.T, fam refreshFamily, p int, before func(r *Rank)) *Session {
	t.Helper()
	sess, err := NewSession(fam.env, fam.blocks, SessionConfig{Procs: p, Domain: fam.domain, Block: 4})
	if err != nil {
		t.Fatalf("%s p=%d: %v", fam.name, p, err)
	}
	runProgram(t, sess, fam, before)
	return sess
}

// runProgram is sessionProgram's Run, for a session the caller built (and
// may have tampered with).
func runProgram(t *testing.T, sess *Session, fam refreshFamily, before func(r *Rank)) {
	t.Helper()
	err := sess.Run(func(r *Rank) error {
		for pass := 0; pass < fam.passes; pass++ {
			for _, b := range fam.blocks {
				if before != nil {
					before(r)
				}
				if err := r.Exec(b); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s p=%d: %v", fam.name, sess.cfg.Procs, err)
	}
}

// serialProgram is the oracle: the same passes on the per-point closure
// engine, no decomposition.
func serialProgram(t *testing.T, fam refreshFamily) {
	t.Helper()
	for pass := 0; pass < fam.passes; pass++ {
		for _, b := range fam.blocks {
			if err := scan.Exec(b, fam.env, scan.ExecOptions{Engine: scan.EngineClosure}); err != nil {
				t.Fatalf("%s serial: %v", fam.name, err)
			}
		}
	}
}

// firstBitDifference compares two environments' arrays bit for bit over
// their whole storage (MaxAbsDiff would let a NaN through) and describes
// the first difference, or returns "".
func firstBitDifference(got, want *expr.MapEnv) string {
	names := make([]string, 0, len(want.Arrays))
	for name := range want.Arrays {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		g, w := got.Arrays[name], want.Arrays[name]
		diff := ""
		w.Bounds().Each(nil, func(p grid.Point) {
			if diff == "" && math.Float64bits(g.At(p)) != math.Float64bits(w.At(p)) {
				diff = fmt.Sprintf("%s%v = %v, serial %v", name, p, g.At(p), w.At(p))
			}
		})
		if diff != "" {
			return diff
		}
	}
	return ""
}

// poisonHalos makes every halo row worthless before a block: each row of
// each local copy that another rank owns becomes NaN, and every such array
// is marked stale on both sides. Copies are of the written arrays only: an
// array no block writes is the caller's field itself (there is no halo row
// to go stale, and a NaN there would be a NaN in a global). Whatever the block then reads across a slab
// boundary must have been put there by its own refresh or by its wave
// messages, or a NaN reaches the result. Every rank does the same, so the
// marks stay symmetric.
func poisonHalos(r *Rank) {
	w := r.sess.cfg.WavefrontDim
	slab, dom := r.sess.slabs[r.id].Dim(w), r.sess.cfg.Domain.Dim(w)
	for _, name := range r.sess.written {
		f := r.locals[name]
		rows := f.Bounds().Dim(w)
		for _, theirs := range []grid.Range{
			grid.NewRange(max(rows.Lo, dom.Lo), slab.Lo-1),
			grid.NewRange(slab.Hi+1, min(rows.Hi, dom.Hi)),
		} {
			if theirs.Empty() {
				continue
			}
			dims := f.Bounds().Dims()
			dims[w] = theirs
			f.FillFunc(grid.MustRegion(dims...), func(grid.Point) float64 { return math.NaN() })
		}
		r.dirty[name] = dirtyBoth
	}
}

// TestRefreshSuppliesEveryHaloRead is the behavioural half of the table
// above: with every halo poisoned before every block, each family must
// still come out bit-identical to serial execution at p = 2, 3 and 4. LU is
// the sharp case — its regions shrink a row per step, so at some step the
// sweep's first row sits on a slab boundary, the ranks above are idle, and
// the pivot row arrives by refresh or not at all; an idle rank that skipped
// a message its peer expected would leave the run with an undelivered
// message or a mismatched tag, which Run reports.
func TestRefreshSuppliesEveryHaloRead(t *testing.T) {
	var want []refreshFamily
	for _, fam := range refreshFamilies(t) {
		serialProgram(t, fam)
		want = append(want, fam)
	}
	for _, p := range []int{2, 3, 4} {
		for i, fam := range refreshFamilies(t) {
			sessionProgram(t, fam, p, poisonHalos)
			if diff := firstBitDifference(fam.env, want[i].env); diff != "" {
				t.Errorf("%s p=%d: with poisoned halos %s", fam.name, p, diff)
			}
		}
	}
}

// diagonalFamily is the sideways case made visible: a plain block that
// rewrites s over every column, the boundary column 0 included, then a scan
// over columns 1..n whose s'@nw is a true dependence everywhere except at
// column 1, where it reads column 0 of the row above — written by the plain
// block, carried by no wave message. (Smith-Waterman has the same diagonal,
// but its boundary column never changes, so a stale copy reads the same.)
func diagonalFamily() refreshFamily {
	const n = 20
	bounds := grid.Square(2, 0, n)
	env := &expr.MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{}}
	f := field.MustNew("s", bounds, field.RowMajor)
	f.FillFunc(bounds, func(p grid.Point) float64 { return 1 + 0.03*float64(p[0]) + 0.002*float64(p[1]) })
	env.Arrays["s"] = f
	wide := grid.MustRegion(grid.NewRange(1, n), grid.NewRange(0, n))
	bump := scan.NewPlain(wide, scan.Stmt{LHS: expr.Ref("s"), RHS: expr.Binary{
		Op: expr.Mul, L: expr.Const(1.0625), R: expr.Ref("s")}})
	diag := scan.NewScan(grid.Square(2, 1, n), scan.Stmt{LHS: expr.Ref("s"), RHS: expr.Binary{
		Op: expr.Add, L: expr.MulN(expr.Const(0.5), expr.Ref("s").At(grid.NW).Prime()),
		R: expr.MulN(expr.Const(0.25), expr.Ref("s").At(grid.West).Prime())}})
	return refreshFamily{"diagonal", env, bounds, []*scan.Block{bump, diag}, 2}
}

// TestRefreshDiagonalEdgeColumn: the diagonal program matches serial under
// poisoned halos at every rank count.
func TestRefreshDiagonalEdgeColumn(t *testing.T) {
	want := diagonalFamily()
	serialProgram(t, want)
	for _, p := range []int{2, 3, 4} {
		fam := diagonalFamily()
		sess := sessionProgram(t, fam, p, poisonHalos)
		if diff := firstBitDifference(fam.env, want.env); diff != "" {
			t.Errorf("p=%d: %s", p, diff)
		}
		if got := sess.plans[fam.blocks[1]].refresh; !slices.Equal(got[sideNeg], []string{"s"}) || len(got[sidePos]) != 0 {
			t.Errorf("p=%d: the diagonal scan refreshes %v, want neg [s] only", p, got)
		}
	}
}

// TestRefreshBreakIsSeen is the intentional break: dropping one side from
// one block's refresh — the pos side before Tomcatv's residual, aa's row
// before its forward sweep, the entry row of LU's pivot broadcast, the edge
// column of a diagonal — must make the unpoisoned program differ from
// serial. If it does not, the whole-program tests would not notice a
// refresh that moved too little.
func TestRefreshBreakIsSeen(t *testing.T) {
	six := func(name string) func() refreshFamily {
		return func() refreshFamily {
			for _, f := range refreshFamilies(t) {
				if f.name == name {
					return f
				}
			}
			t.Fatalf("no family %q", name)
			return refreshFamily{}
		}
	}
	for _, c := range []struct {
		family func() refreshFamily
		p      int
		drop   sidedName
	}{
		{six("tomcatv"), 2, sidedName{"x", sidePos}},
		{six("tomcatv"), 3, sidedName{"aa", sideNeg}},
		{six("lu"), 2, sidedName{"rowk", sideNeg}},
		{diagonalFamily, 2, sidedName{"s", sideNeg}},
	} {
		want, fam := c.family(), c.family()
		serialProgram(t, want)
		sess, err := NewSession(fam.env, fam.blocks, SessionConfig{Procs: c.p, Domain: fam.domain, Block: 4})
		if err != nil {
			t.Fatal(err)
		}
		dropped := 0
		for _, pl := range sess.plans {
			if k := slices.Index(pl.refresh[c.drop.side], c.drop.name); k >= 0 {
				pl.refresh[c.drop.side] = slices.Delete(slices.Clone(pl.refresh[c.drop.side]), k, k+1)
				dropped++
			}
		}
		if dropped == 0 {
			t.Fatalf("%s: no block refreshes %v; the break breaks nothing", fam.name, c.drop)
		}
		runProgram(t, sess, fam, nil)
		if firstBitDifference(fam.env, want.env) == "" {
			t.Errorf("%s p=%d: dropping %v from the refresh changed nothing", fam.name, c.p, c.drop)
		}
	}
}

// shiftEnv is one array pair over a square with a one-row margin, filled
// with values no two rows share.
func shiftEnv(n int) (*expr.MapEnv, grid.Region, grid.Region) {
	bounds := grid.Square(2, 0, n+1)
	env := &expr.MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{}}
	for k, name := range []string{"a", "b"} {
		f := field.MustNew(name, bounds, field.RowMajor)
		f.FillFunc(bounds, func(p grid.Point) float64 { return float64(k+1) + 0.125*float64(p[0]) + 0.001*float64(p[1]) })
		env.Arrays[name] = f
	}
	return env, bounds, grid.Square(2, 1, n)
}

// TestRefreshAgainstTravel: a := a@south in a scan is an anti-dependence —
// the loop must run north to south so each row reads its southern
// neighbour before that row is overwritten — and across a slab boundary
// the southern neighbour is in the pos halo: against the travel direction,
// unprimed, supplied by no wave message. It must refresh the pos side, and
// only that. A block reading both neighbours refreshes both.
func TestRefreshAgainstTravel(t *testing.T) {
	const n = 18
	inner := grid.Square(2, 1, n)
	bump := scan.NewPlain(inner, scan.Stmt{LHS: expr.Ref("a"), RHS: expr.Binary{
		Op: expr.Add, L: expr.Ref("a"), R: expr.Ref("b")}})
	pull := scan.NewScan(inner, scan.Stmt{LHS: expr.Ref("a"), RHS: expr.Binary{
		Op: expr.Mul, L: expr.Const(0.5), R: expr.Ref("a").At(grid.South)}})
	both := scan.NewPlain(inner, scan.Stmt{LHS: expr.Ref("b"), RHS: expr.Binary{
		Op: expr.Sub, L: expr.Ref("a").At(grid.North), R: expr.Ref("a").At(grid.South)}})
	blocks := []*scan.Block{bump, pull, both}

	wantEnv, bounds, _ := shiftEnv(n)
	want := refreshFamily{"against-travel", wantEnv, bounds, blocks, 3}
	serialProgram(t, want)
	for _, p := range []int{2, 3, 4} {
		env, _, _ := shiftEnv(n)
		fam := refreshFamily{"against-travel", env, bounds, blocks, 3}
		sess := sessionProgram(t, fam, p, poisonHalos)
		if diff := firstBitDifference(env, wantEnv); diff != "" {
			t.Errorf("p=%d: %s", p, diff)
		}
		if pl := sess.plans[pull]; pl.an.Loop.Dirs[0] != grid.LowToHigh ||
			len(pl.refresh[sideNeg]) != 0 || !slices.Equal(pl.refresh[sidePos], []string{"a"}) {
			t.Errorf("p=%d: a := a@south travels %v and refreshes neg %v pos %v; want low-to-high, pos [a] only",
				p, pl.an.Loop.Dirs[0], pl.refresh[sideNeg], pl.refresh[sidePos])
		}
		if pl := sess.plans[both]; !slices.Equal(pl.refresh[sideNeg], []string{"a"}) || !slices.Equal(pl.refresh[sidePos], []string{"a"}) {
			t.Errorf("p=%d: a@north - a@south refreshes neg %v pos %v, want [a] on both", p, pl.refresh[sideNeg], pl.refresh[sidePos])
		}
	}

	// Messages, unpoisoned, p = 3: per pass pull moves a's pos halo (one
	// message down across each of the two boundaries), both moves a both ways
	// (two per boundary); bump reads nothing shifted.
	env, _, _ := shiftEnv(n)
	sess := sessionProgram(t, refreshFamily{"against-travel", env, bounds, blocks, 3}, 3, nil)
	if got, want := sess.Stats().Comm.Messages, int64(3*(2+4)); got != want {
		t.Errorf("p=3: %d messages, want %d (one-sided refresh must send one way only)", got, want)
	}
}

// TestRefreshOneSidedMessages counts what the Tomcatv iteration sends at
// p = 2, the benchmark's shape: per iteration the residual's refresh is one
// message each way, the forward sweep's is one message up (aa's top row to
// the rank that reads it) and the backward sweep's is none.
func TestRefreshOneSidedMessages(t *testing.T) {
	tom, err := workload.NewTomcatv(26, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 3
	fam := refreshFamily{"tomcatv", tom.Env, tom.All, tom.Blocks(), iters}
	sess := sessionProgram(t, fam, 2, nil)
	tiles := int64((tom.WaveCols() + 3) / 4)
	// The first iteration's coefficient block leaves aa dirty like every
	// later one's, and x, y start clean: iteration 0 skips the residual's
	// refresh.
	want := iters*(1+2*tiles) + (iters-1)*2
	if got := sess.Stats().Comm.Messages; got != want {
		t.Errorf("%d messages over %d iterations, want %d", got, iters, want)
	}
}
