package taskdag

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wavefront/internal/dep"
	"wavefront/internal/grid"
	"wavefront/internal/metrics"
	"wavefront/internal/trace"
)

// forward2 is the classic wavefront dependence pair: each point needs its
// west and north neighbours.
func forward2() []dep.UDV {
	return []dep.UDV{
		{Dist: grid.Direction{1, 0}, Kind: dep.True},
		{Dist: grid.Direction{0, 1}, Kind: dep.True},
	}
}

func loop2() dep.LoopSpec {
	return dep.LoopSpec{Perm: []int{0, 1}, Dirs: []grid.LoopDir{grid.LowToHigh, grid.LowToHigh}}
}

func TestTileOffsetsCrossProduct(t *testing.T) {
	g, err := New(grid.Square(2, 0, 63), loop2(), forward2(), Options{Workers: 2, TileW: []int{16, 16}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	if got := g.Shape(); got[0] != 4 || got[1] != 4 {
		t.Fatalf("shape = %v, want [4 4]", got)
	}
	// Axis-aligned dependences induce only axis-aligned tile edges; the
	// diagonal is covered transitively.
	want := map[string]bool{"[1 0]": true, "[0 1]": true}
	offs := g.Offsets()
	if len(offs) != len(want) {
		t.Fatalf("offsets = %v, want exactly %v", offs, want)
	}
	for _, e := range offs {
		if !want[fmt.Sprint(e)] {
			t.Errorf("unexpected offset %v", e)
		}
	}
	// Corner tile has no predecessors; interior tiles have two.
	if got := len(g.Preds(0)); got != 0 {
		t.Errorf("tile 0 has %d preds, want 0", got)
	}
	interior := 1*4 + 1
	if got := len(g.Preds(interior)); got != 2 {
		t.Errorf("interior tile has %d preds, want 2", got)
	}
}

func TestDiagonalUDVExpandsCrossProduct(t *testing.T) {
	// A dependence with two nonzero components can cross a tile corner, so
	// the offset set must include both axis projections and the diagonal.
	udvs := []dep.UDV{{Dist: grid.Direction{1, -2}, Kind: dep.True}}
	g, err := New(grid.Square(2, 0, 63), loop2(), udvs, Options{Workers: 2, TileW: []int{8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	want := map[string]bool{"[1 0]": true, "[0 -1]": true, "[1 -1]": true}
	offs := g.Offsets()
	if len(offs) != len(want) {
		t.Fatalf("offsets = %v, want exactly %v", offs, want)
	}
	for _, e := range offs {
		if !want[fmt.Sprint(e)] {
			t.Errorf("unexpected offset %v", e)
		}
	}
	runDAGAndCheckOrder(t, g)
}

func TestTilesPartitionRegion(t *testing.T) {
	region := grid.MustRegion(grid.NewRange(1, 53), grid.NewRange(-3, 17))
	g, err := New(region, loop2(), forward2(), Options{Workers: 3, TileW: []int{9, 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	seen := map[string]int{}
	for i := 0; i < g.Tiles(); i++ {
		g.TileRegion(i).Each(nil, func(p grid.Point) {
			seen[fmt.Sprint(p)]++
		})
	}
	if len(seen) != region.Size() {
		t.Fatalf("tiles cover %d points, region has %d", len(seen), region.Size())
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("point %s covered %d times", k, n)
		}
	}
}

func TestReachWidensTiles(t *testing.T) {
	// A dependence reaching 24 points along dim 0 must force tiles at
	// least that wide, whatever width was requested.
	udvs := []dep.UDV{{Dist: grid.Direction{24, 0}, Kind: dep.True}}
	g, err := New(grid.Square(2, 0, 95), loop2(), udvs, Options{Workers: 2, TileW: []int{8, 16}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	if g.tileW[0] < 24 {
		t.Fatalf("tile width %d along dim 0 is below the dependence reach 24", g.tileW[0])
	}
}

func TestCollapseOnConflictingOffsets(t *testing.T) {
	// Both signs along dim 0 admit no tile-space loop nest; the dimension
	// must collapse to a single tile rather than build a cyclic DAG.
	udvs := []dep.UDV{
		{Dist: grid.Direction{2, 0}, Kind: dep.True},
		{Dist: grid.Direction{-2, 1}, Kind: dep.Anti},
	}
	g, err := New(grid.Square(2, 0, 63), loop2(), udvs, Options{Workers: 2, TileW: []int{8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	if g.Shape()[0] != 1 {
		t.Fatalf("shape = %v, want dim 0 collapsed to 1", g.Shape())
	}
	runDAGAndCheckOrder(t, g)
}

func TestRunRespectsDAGOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			g, err := New(grid.Square(2, 0, 63), loop2(), forward2(), Options{Workers: workers, TileW: []int{8, 8}})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Stop()
			for run := 0; run < 3; run++ {
				runDAGAndCheckOrder(t, g)
			}
		})
	}
}

// runDAGAndCheckOrder runs the graph once with a runner that stamps each
// tile's completion sequence and fails the test if any tile ran before one
// of its predecessors or ran a wrong number of times.
func runDAGAndCheckOrder(t *testing.T, g *Graph) {
	t.Helper()
	var seq atomic.Int64
	order := make([]int64, g.Tiles())
	ran := make([]atomic.Int32, g.Tiles())
	// Identify a tile by its region (the runner API deliberately passes
	// regions, not indices).
	index := make(map[string]int, g.Tiles())
	for i := 0; i < g.Tiles(); i++ {
		index[fmt.Sprint(g.TileRegion(i))] = i
	}
	g.SetRunner(func(worker int, tile grid.Region) {
		i, ok := index[fmt.Sprint(tile)]
		if !ok {
			t.Errorf("runner got unknown tile %v", tile)
			return
		}
		ran[i].Add(1)
		order[i] = seq.Add(1)
	})
	g.Run()
	for i := 0; i < g.Tiles(); i++ {
		if n := ran[i].Load(); n != 1 {
			t.Fatalf("tile %d ran %d times, want 1", i, n)
		}
		for _, p := range g.Preds(i) {
			if order[p] > order[i] {
				t.Fatalf("tile %d (seq %d) ran before predecessor %d (seq %d)",
					i, order[i], p, order[p])
			}
		}
	}
}

func TestEmptyRegionIsNoOp(t *testing.T) {
	region := grid.MustRegion(grid.NewRange(5, 4), grid.NewRange(0, 9))
	g, err := New(region, loop2(), forward2(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	if g.Tiles() != 0 {
		t.Fatalf("empty region produced %d tiles", g.Tiles())
	}
	g.SetRunner(func(int, grid.Region) { t.Error("runner called for empty region") })
	g.Run()
}

func TestTraceValidatesDynamicSchedule(t *testing.T) {
	workers := 4
	tr := trace.New(workers, 0)
	g, err := New(grid.Square(2, 0, 63), loop2(), forward2(),
		Options{Workers: workers, TileW: []int{8, 8}, Trace: tr, TraceBase: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	g.SetRunner(func(int, grid.Region) { time.Sleep(20 * time.Microsecond) })
	g.Run()
	g.Run()
	if err := trace.ValidateRecorder(tr); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	var tiles int
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindTaskTile {
			tiles++
		}
	}
	if want := 2 * g.Tiles(); tiles != want {
		t.Fatalf("trace has %d task-tile events, want %d", tiles, want)
	}
}

func TestTraceDisabledWhenRecorderTooSmall(t *testing.T) {
	tr := trace.New(2, 0) // 4 workers need 4 rings
	g, err := New(grid.Square(2, 0, 31), loop2(), forward2(),
		Options{Workers: 4, TileW: []int{8, 8}, Trace: tr, TraceBase: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	g.SetRunner(func(int, grid.Region) {})
	g.Run()
	if n := tr.Len(); n != 0 {
		t.Fatalf("undersized recorder got %d events, want tracing disabled", n)
	}
}

func TestCorruptCounterCaughtByValidator(t *testing.T) {
	workers := 4
	tr := trace.New(workers, 0)
	g, err := New(grid.Square(2, 0, 63), loop2(), forward2(),
		Options{Workers: workers, TileW: []int{8, 8}, Trace: tr, TraceBase: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	// Corrupt the last tile's counter: it runs with one predecessor
	// outstanding. Slowing every other tile guarantees the corrupted tile
	// starts while a predecessor is still executing, so the trace check
	// (predecessor End <= dependent Start) must fire.
	victim := g.Tiles() - 1
	if len(g.Preds(victim)) == 0 {
		t.Fatal("victim tile has no predecessors")
	}
	if err := g.CorruptCounter(victim); err != nil {
		t.Fatal(err)
	}
	victimRegion := fmt.Sprint(g.TileRegion(victim))
	g.SetRunner(func(worker int, tile grid.Region) {
		if fmt.Sprint(tile) != victimRegion {
			time.Sleep(2 * time.Millisecond)
		}
	})
	g.Run()
	if err := trace.ValidateRecorder(tr); err == nil {
		t.Fatal("validator accepted a schedule with a corrupted dependency counter")
	} else {
		t.Logf("validator caught the corruption: %v", err)
	}
}

func TestCorruptCounterOutOfRange(t *testing.T) {
	g, err := New(grid.Square(2, 0, 31), loop2(), forward2(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	if err := g.CorruptCounter(g.Tiles()); err == nil {
		t.Fatal("out-of-range corruption accepted")
	}
}

func TestWorkerStatsAndMetricsFlush(t *testing.T) {
	workers := 4
	reg := metrics.New(2)
	g, err := New(grid.Square(2, 0, 127), loop2(), forward2(),
		Options{Workers: workers, TileW: []int{8, 8}, Metrics: reg, MetricsRank: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	g.SetRunner(func(int, grid.Region) { time.Sleep(50 * time.Microsecond) })
	// Steals and parks are schedule-dependent; with one seed tile and a
	// slow runner they are overwhelmingly likely, but retry a few runs
	// rather than assert a single nondeterministic outcome.
	var stats []WorkerStats
	runs := 0
	for attempt := 0; attempt < 20; attempt++ {
		g.Run()
		runs++
		stats = g.WorkerStats()
		var steals, parks int64
		for _, s := range stats {
			steals += s.Steals
			parks += s.Parks
		}
		if steals > 0 && parks > 0 {
			break
		}
	}
	var tiles, steals, parks, unparks int64
	for _, s := range stats {
		tiles += s.Tiles
		steals += s.Steals
		parks += s.Parks
		unparks += s.Unparks
	}
	if want := int64(runs * g.Tiles()); tiles != want {
		t.Fatalf("workers executed %d tiles, want %d", tiles, want)
	}
	if steals == 0 {
		t.Error("no steals across 20 runs of a single-seed DAG on 4 workers")
	}
	if parks == 0 {
		t.Error("no parks across 20 runs")
	}
	if parks != unparks {
		t.Errorf("parks %d != unparks %d after quiescence", parks, unparks)
	}
	if got := reg.Counter(metrics.TaskTiles).Rank(1); got != tiles {
		t.Errorf("metrics shard has %d tiles, stats say %d", got, tiles)
	}
	if got := reg.Counter(metrics.TaskSteals).Rank(1); got != steals {
		t.Errorf("metrics shard has %d steals, stats say %d", got, steals)
	}
}

func TestOrderSeedPerturbsButStaysSafe(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g, err := New(grid.Square(2, 0, 63), loop2(), forward2(),
			Options{Workers: 4, TileW: []int{8, 8}, OrderSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		runDAGAndCheckOrder(t, g)
		g.Stop()
	}
}

func TestConcurrentTileBodiesSeePredecessorWrites(t *testing.T) {
	// The memory-model contract: a tile's body observes every write made
	// by its (transitive) predecessors. Sum a counter along the diagonal:
	// each tile adds its predecessor count read from shared cells.
	g, err := New(grid.Square(2, 0, 63), loop2(), forward2(), Options{Workers: 8, TileW: []int{8, 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	cells := make([]int64, g.Tiles()) // written without atomics: the DAG must order them
	index := map[string]int{}
	for i := 0; i < g.Tiles(); i++ {
		index[fmt.Sprint(g.TileRegion(i))] = i
	}
	g.SetRunner(func(worker int, tile grid.Region) {
		i := index[fmt.Sprint(tile)]
		var sum int64 = 1
		for _, p := range g.Preds(i) {
			sum += cells[p]
		}
		cells[i] = sum
	})
	for run := 0; run < 5; run++ {
		for i := range cells {
			cells[i] = 0
		}
		g.Run()
		// Tile values follow the Delannoy-style recurrence; spot-check the
		// origin row/column which must be strictly increasing path counts.
		if cells[0] != 1 {
			t.Fatalf("run %d: origin tile = %d, want 1", run, cells[0])
		}
		for i := 1; i < g.Shape()[1]; i++ {
			if cells[i] <= cells[i-1] {
				t.Fatalf("run %d: first-row prefix sums not increasing: %v", run, cells[:g.Shape()[1]])
			}
		}
	}
}

func TestStopIdempotentAndRacesNothing(t *testing.T) {
	g, err := New(grid.Square(2, 0, 31), loop2(), forward2(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	g.SetRunner(func(int, grid.Region) {})
	g.Run()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); g.Stop() }()
	}
	wg.Wait()
	g.Stop()
}

// TestAutoGeometry pins the automatic tile geometry per dependence class and
// pool width: a dimension a dependence crosses, and a dependence-free outer
// dimension, are cut into about 4*W chunks; a dependence-free span dimension
// (the loop's innermost) only into the ceil(W/P) chunks the pool still lacks
// once the other free dimensions supply P. Restoring the 4*W cut on the span
// dimension fails here, on the shape, not on a timing threshold.
func TestAutoGeometry(t *testing.T) {
	workers := []int{1, 2, 3, 8}
	u := func(d ...int) dep.UDV { return dep.UDV{Dist: grid.Direction(d), Kind: dep.True} }
	size := func(n ...int) grid.Region {
		dims := make([]grid.Range, len(n))
		for i, s := range n {
			dims[i] = grid.NewRange(2, s+1)
		}
		return grid.MustRegion(dims...)
	}
	perm3 := []int{0, 1, 2}
	cases := []struct {
		name   string
		region grid.Region
		perm   []int
		udvs   []dep.UDV
		tileW  []int
		want   [4][]int // tiles per dimension at W = 1, 2, 3, 8
	}{
		{"tomcatv-forward", size(509, 510), []int{0, 1}, []dep.UDV{u(1, 0), u(0, 0)}, nil,
			[4][]int{{4, 1}, {8, 2}, {12, 3}, {32, 8}}},
		{"tomcatv-backward", size(509, 510), []int{0, 1}, []dep.UDV{u(-1, 0), u(0, 0)}, nil,
			[4][]int{{4, 1}, {8, 2}, {12, 3}, {32, 8}}},
		{"sw-both-carried-diagonal", size(512, 512), []int{0, 1}, []dep.UDV{u(0, 1), u(1, 0), u(1, 1)}, nil,
			[4][]int{{4, 4}, {8, 8}, {12, 12}, {32, 32}}},
		{"span-carried-outer-free", size(512, 512), []int{0, 1}, []dep.UDV{u(0, 1)}, nil,
			[4][]int{{4, 4}, {8, 8}, {12, 12}, {32, 32}}},
		{"plain-no-udvs", size(509, 510), []int{0, 1}, nil, nil,
			[4][]int{{4, 1}, {8, 1}, {12, 1}, {32, 1}}},
		{"span-is-dim0", size(510, 509), []int{1, 0}, []dep.UDV{u(0, 1)}, nil,
			[4][]int{{1, 4}, {2, 8}, {3, 12}, {8, 32}}},
		{"rank3-one-carried-two-free", size(256, 256, 64), perm3, []dep.UDV{u(1, 0, 0)}, nil,
			[4][]int{{4, 4, 1}, {8, 8, 1}, {12, 12, 1}, {32, 32, 1}}},
		// The free outer dimension is only 16 wide (two 8-point chunks), so
		// the span dimension makes up the rest: ceil(W/2) chunks.
		{"rank3-short-free-outer", size(256, 16, 512), perm3, []dep.UDV{u(1, 0, 0)}, nil,
			[4][]int{{4, 2, 1}, {8, 2, 1}, {12, 2, 2}, {32, 2, 4}}},
		{"sweep3d-all-carried", size(64, 64, 64), perm3, []dep.UDV{u(1, 0, 0), u(0, 1, 0), u(0, 0, 1)}, nil,
			[4][]int{{4, 4, 4}, {8, 8, 8}, {8, 8, 8}, {8, 8, 8}}},
		{"span-narrower-than-8W", size(509, 20), []int{0, 1}, []dep.UDV{u(1, 0)}, nil,
			[4][]int{{4, 1}, {8, 2}, {12, 3}, {32, 3}}},
		{"explicit-both", size(509, 510), []int{0, 1}, []dep.UDV{u(1, 0)}, []int{64, 64},
			[4][]int{{8, 8}, {8, 8}, {8, 8}, {8, 8}}},
		{"explicit-span-only", size(509, 510), []int{0, 1}, []dep.UDV{u(1, 0)}, []int{0, 64},
			[4][]int{{4, 8}, {8, 8}, {12, 8}, {32, 8}}},
		{"explicit-outer-only", size(509, 510), []int{0, 1}, []dep.UDV{u(1, 0)}, []int{64},
			[4][]int{{8, 1}, {8, 2}, {8, 3}, {8, 8}}},
		// An explicit cut of a free outer dimension counts toward P.
		{"explicit-free-outer-feeds-span", size(256, 64, 512), perm3, []dep.UDV{u(1, 0, 0)}, []int{0, 32},
			[4][]int{{4, 2, 1}, {8, 2, 1}, {12, 2, 2}, {32, 2, 4}}},
	}
	for _, c := range cases {
		for wi, W := range workers {
			t.Run(fmt.Sprintf("%s/w%d", c.name, W), func(t *testing.T) {
				loop, err := dep.DerivePreferred(len(c.perm), c.udvs, dep.Preference{DimOrder: c.perm, PreferLow: true})
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(loop.Perm) != fmt.Sprint(c.perm) {
					t.Fatalf("derived perm %v, case wants %v", loop.Perm, c.perm)
				}
				g, err := New(c.region, loop, c.udvs, Options{Workers: W, TileW: c.tileW})
				if err != nil {
					t.Fatal(err)
				}
				defer g.Stop()
				if got := g.Shape(); fmt.Sprint(got) != fmt.Sprint(c.want[wi]) {
					t.Fatalf("shape = %v, want %v", got, c.want[wi])
				}
				// The shapes this rule produces — W long chains, nothing to
				// move once each worker holds one — must still hand off
				// through park/unpark correctly.
				runDAGAndCheckOrder(t, g)
			})
		}
	}
}

// TestAutoGeometryProperty sweeps random legal UDV sets over odd-sized,
// strided regions: whatever geometry decompose picks, the tiles partition the
// region exactly once, the tile graph is acyclic and the pool drains it, and
// an automatically cut dependence-free span dimension never has more chunks
// than the pool has workers.
func TestAutoGeometryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	legal := 0
	for trial := 0; trial < 600; trial++ {
		rank := 2 + rng.Intn(2)
		udvs := make([]dep.UDV, rng.Intn(4))
		for i := range udvs {
			d := make(grid.Direction, rank)
			for k := range d {
				if rng.Intn(2) == 0 {
					d[k] = rng.Intn(5) - 2
				}
			}
			udvs[i] = dep.UDV{Dist: d, Kind: dep.True}
		}
		loop, err := dep.DerivePreferred(rank, udvs, dep.Preference{PreferLow: true})
		if err != nil {
			continue
		}
		legal++
		dims := make([]grid.Range, rank)
		maxSize := 61
		if rank == 3 {
			maxSize = 27
		}
		for d := range dims {
			lo, stride := rng.Intn(7)-3, 1+rng.Intn(2)
			n := 1 + 2*rng.Intn(maxSize/2+1) // odd
			dims[d] = grid.Range{Lo: lo, Hi: lo + (n-1)*stride, Stride: stride}
		}
		region := grid.MustRegion(dims...)
		W := 1 + rng.Intn(8)
		g, err := New(region, loop, udvs, Options{Workers: W})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		desc := fmt.Sprintf("trial %d: region %v udvs %v perm %v W=%d shape %v", trial, region, udvs, loop.Perm, W, g.Shape())

		covered := make([]int, region.Size())
		for i := 0; i < g.Tiles(); i++ {
			g.TileRegion(i).Each(nil, func(p grid.Point) {
				at := 0
				for d, r := range dims {
					if !r.Contains(p[d]) {
						t.Fatalf("%s: tile %d holds %v, outside the region", desc, i, p)
					}
					at = at*r.Size() + (p[d]-r.Lo)/r.Stride
				}
				covered[at]++
			})
		}
		for at, n := range covered {
			if n != 1 {
				t.Fatalf("%s: point #%d covered %d times", desc, at, n)
			}
		}

		span := loop.Perm[rank-1]
		free := true
		for _, u := range udvs {
			if u.Dist[span] != 0 {
				free = false
			}
		}
		if free && g.Shape()[span] > W {
			t.Fatalf("%s: dependence-free span dimension %d cut into more chunks than workers", desc, span)
		}

		// Kahn's algorithm over the predecessor lists: every tile must
		// retire, or the graph has a cycle and Run would hang.
		indeg := make([]int, g.Tiles())
		succs := make([][]int, g.Tiles())
		var ready []int
		for i := range indeg {
			ps := g.Preds(i)
			indeg[i] = len(ps)
			for _, p := range ps {
				succs[p] = append(succs[p], i)
			}
			if len(ps) == 0 {
				ready = append(ready, i)
			}
		}
		retired := 0
		for len(ready) > 0 {
			i := ready[len(ready)-1]
			ready = ready[:len(ready)-1]
			retired++
			for _, s := range succs[i] {
				if indeg[s]--; indeg[s] == 0 {
					ready = append(ready, s)
				}
			}
		}
		if retired != g.Tiles() {
			t.Fatalf("%s: only %d of %d tiles can retire (cyclic tile graph)", desc, retired, g.Tiles())
		}
		var ran atomic.Int64
		g.SetRunner(func(int, grid.Region) { ran.Add(1) })
		g.Run()
		g.Stop()
		if int(ran.Load()) != g.Tiles() {
			t.Fatalf("%s: pool ran %d of %d tiles", desc, ran.Load(), g.Tiles())
		}
	}
	if legal < 100 {
		t.Fatalf("only %d of 600 random UDV sets were legal; the sweep proves little", legal)
	}
}

// TestBuildAllocs bounds what one graph build allocates on the two UDV sets
// a session rebuilds graphs for most (Tomcatv's row-carried pair and
// Smith-Waterman's three, diagonal included): the tile-offset dedup must not
// format a string and insert into a map per candidate offset.
func TestBuildAllocs(t *testing.T) {
	u := func(d ...int) dep.UDV { return dep.UDV{Dist: grid.Direction(d), Kind: dep.True} }
	for _, c := range []struct {
		name  string
		udvs  []dep.UDV
		tiles int
		max   float64
	}{
		// Measured 42 and 85; 52 and 103 while every tile's region and
		// every per-dimension table was an allocation of its own (and the
		// graph spawned its pool), and the string-keyed dedup read 64 and
		// 139 (a formatted key per candidate offset per UDV, plus the map).
		{"tomcatv", []dep.UDV{u(1, 0), u(0, 0), {Dist: grid.Direction{0, 0}, Kind: dep.Anti}, u(1, 0), u(0, 0)}, 8, 45},
		{"sw", []dep.UDV{u(0, 1), u(0, 1), u(1, 0), u(1, 0), u(1, 1), u(0, 0)}, 16, 90},
	} {
		t.Run(c.name, func(t *testing.T) {
			region := grid.Square(2, 1, 64)
			opt := Options{Workers: 1, TileW: []int{16, 16}}
			if c.name == "tomcatv" {
				opt.TileW = []int{8, 64}
			}
			build := func() *Graph {
				g, err := New(region, loop2(), c.udvs, opt)
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
			if got := build().Tiles(); got != c.tiles {
				t.Fatalf("graph has %d tiles, want %d", got, c.tiles)
			}
			allocs := testing.AllocsPerRun(20, func() { build().Stop() })
			t.Logf("%s: %.0f allocs per build (%d tiles)", c.name, allocs, c.tiles)
			if !raceEnabled && allocs > c.max {
				t.Fatalf("%.0f allocs per build, bound %.0f", allocs, c.max)
			}
		})
	}
}

// TestRunAfterStopPanics: Stop retires the pool, so a later Run has nobody
// to hand tiles to. It must refuse like Run before SetRunner does — at W = 2
// it used to drain the tiles on the caller and then wait forever for the
// retired worker to check out. The watchdog turns a regression into a
// failure instead of a hung suite.
func TestRunAfterStopPanics(t *testing.T) {
	g, err := New(grid.Square(2, 0, 31), loop2(), forward2(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	g.SetRunner(func(int, grid.Region) {})
	g.Run()
	g.Stop()
	got := make(chan any, 1)
	go func() {
		defer func() { got <- recover() }()
		g.Run()
	}()
	select {
	case r := <-got:
		if r != "taskdag: Run after Stop" {
			t.Fatalf("Run after Stop: recovered %v, want the refusal panic", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run after Stop hangs instead of panicking")
	}
}

// rendezvous is a meeting point tile bodies block at until `parties` of
// them are inside it at once, which only a pool that really runs that many
// tiles concurrently can satisfy. A body gives up after two seconds, and
// once one has given up the rest pass straight through, so a pool that
// serializes fails the test quickly rather than hanging it.
type rendezvous struct {
	parties int32
	arrived atomic.Int32
	met     chan struct{}
	failed  atomic.Bool
}

func newRendezvous(parties int) *rendezvous {
	return &rendezvous{parties: int32(parties), met: make(chan struct{})}
}

func (r *rendezvous) arrive(t *testing.T) {
	if r.arrived.Add(1) == r.parties {
		close(r.met)
	}
	if r.failed.Load() {
		return
	}
	select {
	case <-r.met:
	case <-time.After(2 * time.Second):
		if !r.failed.Swap(true) {
			t.Errorf("only %d of %d tile bodies ran at once", r.arrived.Load(), r.parties)
		}
	}
}

// TestPoolRunsReadyTilesConcurrently pins the property every other test
// lets a pool lose: a pool that never wakes anybody still computes the right
// answer, validates and allocates nothing — it just runs on one worker.
func TestPoolRunsReadyTilesConcurrently(t *testing.T) {
	// Sixteen seed tiles, four workers: the seeds must reach every worker.
	t.Run("seeds", func(t *testing.T) {
		g, err := New(grid.Square(2, 0, 63), loop2(), nil, Options{Workers: 4, TileW: []int{4, 64}})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Stop()
		if g.Tiles() != 16 {
			t.Fatalf("%d tiles, want 16", g.Tiles())
		}
		rv := newRendezvous(4)
		g.SetRunner(func(int, grid.Region) { rv.arrive(t) })
		g.Run()
	})
	// A 2 x 2 grid under the forward pair on three workers: tile 0 runs
	// with two workers parked, and its completion releases tiles 1 and 2
	// together. The worker that finished tile 0 takes one; the other must
	// go to a worker that release wakes.
	t.Run("release", func(t *testing.T) {
		g, err := New(grid.Square(2, 0, 63), loop2(), forward2(), Options{Workers: 3, TileW: []int{32, 32}})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Stop()
		if g.Tiles() != 4 || len(g.Preds(1)) != 1 || len(g.Preds(2)) != 1 {
			t.Fatalf("%d tiles, preds %v / %v; want the 2 x 2 forward grid", g.Tiles(), g.Preds(1), g.Preds(2))
		}
		rv := newRendezvous(2)
		g.SetRunner(func(_ int, tile grid.Region) {
			switch {
			case tile.Equal(g.TileRegion(0)):
				for deadline := time.Now().Add(2 * time.Second); ; runtime.Gosched() {
					g.pool.mu.Lock()
					parked := g.parked
					g.pool.mu.Unlock()
					if parked == 2 {
						return
					}
					if time.Now().After(deadline) {
						t.Errorf("%d workers parked while the seed tile runs, want 2", parked)
						return
					}
				}
			case tile.Equal(g.TileRegion(1)), tile.Equal(g.TileRegion(2)):
				rv.arrive(t)
			}
		})
		g.Run()
	})
}

// TestNewMultiMatchesSingleGraphs: a merged graph is each spec's own graph
// with tile indices shifted by the tiles before it — no edge crosses specs,
// none is lost, and every tile knows its spec.
func TestNewMultiMatchesSingleGraphs(t *testing.T) {
	back := dep.LoopSpec{Perm: []int{0, 1}, Dirs: []grid.LoopDir{grid.HighToLow, grid.HighToLow}}
	specs := []Spec{
		{Region: grid.Square(2, 0, 63), Loop: loop2(), UDVs: forward2()},
		{Region: grid.MustRegion(grid.NewRange(5, 4), grid.NewRange(0, 9)), Loop: loop2(), UDVs: forward2()}, // empty
		{Region: grid.Square(2, 1, 40), Loop: back, UDVs: []dep.UDV{
			{Dist: grid.Direction{-1, 0}, Kind: dep.True}, {Dist: grid.Direction{-1, -1}, Kind: dep.True}}},
	}
	opt := Options{Workers: 2, TileW: []int{8, 8}}
	m, err := NewMulti(specs, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	if m.Subs() != len(specs) {
		t.Fatalf("Subs() = %d, want %d", m.Subs(), len(specs))
	}
	base := 0
	for si, sp := range specs {
		g, err := New(sp.Region, sp.Loop, sp.UDVs, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < g.Tiles(); i++ {
			if !m.TileRegion(base + i).Equal(g.TileRegion(i)) {
				t.Fatalf("spec %d tile %d: merged region %v, single %v", si, i, m.TileRegion(base+i), g.TileRegion(i))
			}
			if m.SubOf(base+i) != si {
				t.Fatalf("spec %d tile %d: SubOf = %d", si, i, m.SubOf(base+i))
			}
			want := g.Preds(i)
			for j := range want {
				want[j] += int32(base)
			}
			if got := m.Preds(base + i); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("spec %d tile %d: merged preds %v, want %v", si, i, got, want)
			}
		}
		base += g.Tiles()
		g.Stop()
	}
	if m.Tiles() != base {
		t.Fatalf("merged graph has %d tiles, the specs %d", m.Tiles(), base)
	}
	var ran atomic.Int64
	m.SetRunnerSub(func(_, sub int, tile grid.Region) {
		if !specs[sub].Region.ContainsRegion(tile) {
			t.Errorf("tile %v handed to spec %d", tile, sub)
		}
		ran.Add(1)
	})
	m.Run()
	if int(ran.Load()) != base {
		t.Fatalf("pool ran %d of %d tiles", ran.Load(), base)
	}
}

// TestRecutMatchesFreshGraph: a graph re-cut over a shrinking region, the
// way LU's elimination steps shrink it, is tile for tile and edge for edge
// the graph New builds over that region, runs in DAG order, and re-cut
// over the region it already has allocates nothing. A wrong region count
// or rank is refused.
func TestRecutMatchesFreshGraph(t *testing.T) {
	opt := Options{Workers: 3}
	g, err := New(grid.Square(2, 0, 63), loop2(), forward2(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	for _, lo := range []int{0, 5, 20, 41, 60, 63, 64, 10} {
		region := grid.Square(2, lo, 63)
		if err := g.Recut([]grid.Region{region}); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(region, loop2(), forward2(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(g.Shape(), g.Offsets()), fmt.Sprint(fresh.Shape(), fresh.Offsets()); got != want {
			t.Fatalf("lo %d: re-cut shape and offsets %s, fresh %s", lo, got, want)
		}
		if g.Tiles() != fresh.Tiles() {
			t.Fatalf("lo %d: re-cut graph has %d tiles, fresh %d", lo, g.Tiles(), fresh.Tiles())
		}
		for i := 0; i < g.Tiles(); i++ {
			if !g.TileRegion(i).Equal(fresh.TileRegion(i)) || fmt.Sprint(g.Preds(i)) != fmt.Sprint(fresh.Preds(i)) {
				t.Fatalf("lo %d, tile %d: re-cut %v after %v, fresh %v after %v",
					lo, i, g.TileRegion(i), g.Preds(i), fresh.TileRegion(i), fresh.Preds(i))
			}
		}
		fresh.Stop()
		runDAGAndCheckOrder(t, g)
		same := []grid.Region{region}
		if a := testing.AllocsPerRun(10, func() { _ = g.Recut(same) }); a != 0 {
			t.Errorf("lo %d: re-cut over the same region allocates %.0f times", lo, a)
		}
	}
	if err := g.Recut(nil); err == nil {
		t.Error("Recut with no region for the graph's one spec was accepted")
	}
	if err := g.Recut([]grid.Region{grid.Square(3, 0, 7)}); err == nil {
		t.Error("Recut over a rank-3 region of a rank-2 spec was accepted")
	}
}

// poolWorkers returns the IDs of the goroutines running a pool's worker
// loop that others does not hold.
func poolWorkers(others map[string]bool) map[string]bool {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for ; n == len(buf); n = runtime.Stack(buf, true) {
		buf = make([]byte, 2*len(buf))
	}
	ids := map[string]bool{}
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if f := strings.Fields(g); len(f) > 1 && strings.Contains(g, "taskdag.(*pool).loop") && !others[f[1]] {
			ids[f[1]] = true
		}
	}
	return ids
}

// TestPoolRunsGraphsAcrossStop: graphs that share a pool run on the same
// workers, spawned by the first Run and parked between Runs; retiring one
// graph leaves the pool to the others, Pool.Stop retires the workers, and a
// later Run starts them again. A pool that becomes unreachable is stopped
// by the collector.
func TestPoolRunsGraphsAcrossStop(t *testing.T) {
	others := poolWorkers(nil)
	settle := func(what string) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); len(poolWorkers(others)) > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d pool workers left", what, len(poolWorkers(others)))
			}
			runtime.GC()
		}
	}
	p := NewPool(3)
	var graphs [2]*Graph
	for i := range graphs {
		g, err := New(grid.Square(2, 0, 63), loop2(), forward2(), Options{Pool: p, TileW: []int{8, 8}})
		if err != nil {
			t.Fatal(err)
		}
		if g.Workers() != 3 {
			t.Fatalf("a graph on a pool of 3 reports %d workers", g.Workers())
		}
		graphs[i] = g
	}
	if got := len(poolWorkers(others)); got != 0 {
		t.Fatalf("%d pool workers before any Run: the pool spawned eagerly", got)
	}
	var first map[string]bool
	for run := 0; run < 3; run++ {
		for _, g := range graphs {
			runDAGAndCheckOrder(t, g)
		}
		now := poolWorkers(others)
		if first == nil {
			first = now
		}
		if len(now) != 2 || len(poolWorkers(first)) != 0 || len(first) != 2 {
			t.Fatalf("run %d: pool workers %v, after the first run %v: want the same 2", run, now, first)
		}
	}
	graphs[0].Stop()
	runDAGAndCheckOrder(t, graphs[1])
	if got := len(poolWorkers(others)); got != 2 {
		t.Fatalf("%d pool workers after a graph on the pool stopped, want 2: the pool went with it", got)
	}
	p.Stop()
	settle("after Pool.Stop")
	runDAGAndCheckOrder(t, graphs[1])
	p.Stop()
	settle("after the second Pool.Stop")

	func() {
		g, err := New(grid.Square(2, 0, 63), loop2(), forward2(), Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		runDAGAndCheckOrder(t, g)
	}()
	settle("after a graph and its pool became unreachable")
}
