package pipeline

import (
	"errors"
	"math/rand"
	"testing"

	"wavefront/internal/comm"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/scan"
)

func env2(names []string, bounds grid.Region) *expr.MapEnv {
	m := &expr.MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{}}
	for _, n := range names {
		m.Arrays[n] = field.MustNew(n, bounds, field.RowMajor)
	}
	return m
}

func seed(env *expr.MapEnv, r grid.Region, salt float64) {
	for name, f := range env.Arrays {
		name := name
		f.FillFunc(f.Bounds(), func(p grid.Point) float64 {
			v := salt + 0.017*float64(p[0]) + 0.003*float64(p[1]%17)
			if name == "dd" {
				v += 3
			}
			if name == "aa" {
				v *= 0.3
			}
			return v
		})
	}
	_ = r
}

// tomcatv builds the Figure 2(b) scan block over an n×n space.
func tomcatv(n int) (*scan.Block, []string) {
	north := grid.Direction{-1, 0}
	region := grid.MustRegion(grid.NewRange(2, n-2), grid.NewRange(2, n-1))
	blk := scan.NewScan(region,
		scan.Stmt{LHS: expr.Ref("r"), RHS: expr.Binary{Op: expr.Mul, L: expr.Ref("aa"), R: expr.Ref("d").At(north).Prime()}},
		scan.Stmt{LHS: expr.Ref("d"), RHS: expr.Binary{Op: expr.Div, L: expr.Const(1),
			R: expr.Binary{Op: expr.Sub, L: expr.Ref("dd"),
				R: expr.Binary{Op: expr.Mul, L: expr.Ref("aa").At(north), R: expr.Ref("r")}}}},
		scan.Stmt{LHS: expr.Ref("rx"), RHS: expr.Binary{Op: expr.Sub, L: expr.Ref("rx"),
			R: expr.Binary{Op: expr.Mul, L: expr.Ref("rx").At(north).Prime(), R: expr.Ref("r")}}},
		scan.Stmt{LHS: expr.Ref("ry"), RHS: expr.Binary{Op: expr.Sub, L: expr.Ref("ry"),
			R: expr.Binary{Op: expr.Mul, L: expr.Ref("ry").At(north).Prime(), R: expr.Ref("r")}}},
	)
	return blk, []string{"r", "aa", "d", "dd", "rx", "ry"}
}

// checkAgainstSerial runs blk serially and in parallel with the config and
// compares every written array bit-for-bit (the runtime performs the same
// floating-point operations in the same order per element).
func checkAgainstSerial(t *testing.T, blk *scan.Block, names []string, bounds grid.Region, cfg Config) *Stats {
	t.Helper()
	return checkAgainstSerialDims(t, blk, names, bounds, cfg, -1, -1)
}

// checkAgainstSerialDims is checkAgainstSerial with the wavefront and tile
// dimensions pinned.
func checkAgainstSerialDims(t *testing.T, blk *scan.Block, names []string, bounds grid.Region, cfg Config, wDim, tDim int) *Stats {
	t.Helper()
	ref := env2(names, bounds)
	seed(ref, bounds, 1)
	if err := scan.Exec(blk, ref, scan.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	par := env2(names, bounds)
	seed(par, bounds, 1)
	stats, err := runDims(blk, par, cfg, wDim, tDim)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if d := par.Arrays[name].MaxAbsDiff(bounds, ref.Arrays[name]); d != 0 {
			t.Errorf("p=%d b=%d: array %q differs from serial by %g", cfg.Procs, cfg.Block, name, d)
		}
	}
	return stats
}

func TestTomcatvParallelMatchesSerial(t *testing.T) {
	n := 33
	blk, names := tomcatv(n)
	bounds := grid.MustRegion(grid.NewRange(1, n), grid.NewRange(1, n))
	for _, p := range []int{1, 2, 3, 4, 7} {
		for _, b := range []int{0, 1, 3, 5, 8, 100} {
			cfg := DefaultConfig(p, b)
			checkAgainstSerial(t, blk, names, bounds, cfg)
		}
	}
}

func TestTomcatvMessageCount(t *testing.T) {
	n := 33
	blk, names := tomcatv(n)
	bounds := grid.MustRegion(grid.NewRange(1, n), grid.NewRange(1, n))
	p, b := 4, 5
	for _, kind := range []comm.TransportKind{comm.TransportChan, comm.TransportUnix} {
		cfg := DefaultConfig(p, b)
		cfg.Transport.Kind = kind
		stats := checkAgainstSerial(t, blk, names, bounds, cfg)
		// Width of the region is n-2 = 31 columns → ceil(31/5) = 7 tiles;
		// each of the p-1 = 3 boundaries carries one message per tile.
		wantTiles := 7
		if stats.Tiles != wantTiles {
			t.Errorf("%v: tiles = %d, want %d", kind, stats.Tiles, wantTiles)
		}
		wantMsgs := int64((p - 1) * wantTiles)
		if stats.Comm.Messages != wantMsgs {
			t.Errorf("%v: messages = %d, want %d", kind, stats.Comm.Messages, wantMsgs)
		}
		// Three arrays pipeline with halo depth 1 (d, rx, ry): over a socket
		// a boundary crossing carries 3 * width elements; in process every
		// rank reads them where the upstream rank wrote them, and a message
		// is only the token.
		wantElems := int64((p - 1) * 3 * 31)
		if kind == comm.TransportChan {
			wantElems = 0
		}
		if stats.Comm.Elements != wantElems {
			t.Errorf("%v: elements = %d, want %d", kind, stats.Comm.Elements, wantElems)
		}
		if len(stats.Pipelined) != 3 {
			t.Errorf("%v: pipelined arrays = %v, want d, rx, ry", kind, stats.Pipelined)
		}
	}
}

func TestNaiveIsSingleTile(t *testing.T) {
	n := 21
	blk, names := tomcatv(n)
	bounds := grid.MustRegion(grid.NewRange(1, n), grid.NewRange(1, n))
	stats := checkAgainstSerial(t, blk, names, bounds, DefaultConfig(3, 0))
	if stats.Tiles != 1 {
		t.Errorf("naive run used %d tiles", stats.Tiles)
	}
	if stats.Comm.Messages != 2 {
		t.Errorf("naive run sent %d messages, want 2", stats.Comm.Messages)
	}
}

// TestDiagonalWavefront exercises a dynamic-programming-style recurrence
// with a diagonal dependence: a := a'@north + a'@west + a'@nw. Whatever
// dimension the wavefront uses, the lag mechanism must keep results exact.
func TestDiagonalWavefront(t *testing.T) {
	n := 20
	bounds := grid.MustRegion(grid.NewRange(0, n), grid.NewRange(0, n))
	region := grid.MustRegion(grid.NewRange(1, n), grid.NewRange(1, n))
	blk := scan.NewScan(region, scan.Stmt{
		LHS: expr.Ref("a"),
		RHS: expr.AddN(
			expr.Ref("a").At(grid.North).Prime(),
			expr.Ref("a").At(grid.West).Prime(),
			expr.Ref("a").At(grid.NW).Prime(),
		),
	})
	for _, p := range []int{1, 2, 4} {
		for _, b := range []int{0, 1, 3, 7} {
			checkAgainstSerial(t, blk, []string{"a"}, bounds, DefaultConfig(p, b))
		}
	}
}

// TestForwardDiagonal has a cross-boundary read that reaches forward along
// the tile dimension ((-1,+1)), forcing the receiver to hold back one tile.
func TestForwardDiagonal(t *testing.T) {
	n := 24
	bounds := grid.MustRegion(grid.NewRange(0, n), grid.NewRange(0, n+1))
	region := grid.MustRegion(grid.NewRange(1, n), grid.NewRange(1, n))
	blk := scan.NewScan(region, scan.Stmt{
		LHS: expr.Ref("a"),
		RHS: expr.Binary{Op: expr.Add,
			L: expr.Ref("a").At(grid.North).Prime(),
			R: expr.Ref("a").At(grid.NE).Prime()},
	})
	for _, p := range []int{1, 2, 3} {
		for _, b := range []int{0, 1, 4, 9} {
			checkAgainstSerial(t, blk, []string{"a"}, bounds, DefaultConfig(p, b))
		}
	}
}

// TestSouthboundWavefront reverses the travel direction: a := 2*a'@south
// must pipeline from high rows to low rows.
func TestSouthboundWavefront(t *testing.T) {
	n := 18
	bounds := grid.MustRegion(grid.NewRange(1, n+1), grid.NewRange(1, n))
	region := grid.MustRegion(grid.NewRange(1, n), grid.NewRange(1, n))
	blk := scan.NewScan(region, scan.Stmt{
		LHS: expr.Ref("a"),
		RHS: expr.Binary{Op: expr.Mul, L: expr.Const(0.5), R: expr.Ref("a").At(grid.South).Prime()},
	})
	for _, p := range []int{1, 3, 4} {
		checkAgainstSerial(t, blk, []string{"a"}, bounds, DefaultConfig(p, 4))
	}
}

// TestFullyParallelBlock: a Jacobi-style statement with no primed refs
// partitions with zero messages.
func TestFullyParallelBlock(t *testing.T) {
	n := 16
	bounds := grid.MustRegion(grid.NewRange(0, n+1), grid.NewRange(0, n+1))
	region := grid.Square(2, 1, n)
	blk := scan.NewScan(region, scan.Stmt{
		LHS: expr.Ref("a"),
		RHS: expr.Binary{Op: expr.Mul, L: expr.Const(0.25),
			R: expr.AddN(
				expr.Ref("b").At(grid.North), expr.Ref("b").At(grid.South),
				expr.Ref("b").At(grid.West), expr.Ref("b").At(grid.East))},
	})
	stats := checkAgainstSerial(t, blk, []string{"a", "b"}, bounds, DefaultConfig(4, 0))
	if stats.Comm.Messages != 0 {
		t.Errorf("fully parallel block sent %d messages", stats.Comm.Messages)
	}
}

func TestTooManyRanks(t *testing.T) {
	n := 6
	blk, names := tomcatv(n)
	bounds := grid.MustRegion(grid.NewRange(1, n), grid.NewRange(1, n))
	env := env2(names, bounds)
	seed(env, bounds, 1)
	// Region rows = 2..n-2 = 3 rows; 5 ranks cannot split 3 rows.
	if _, err := Run(blk, env, DefaultConfig(5, 0)); err == nil {
		t.Fatal("expected failure with more ranks than rows")
	}
}

func TestExplicitWavefrontDim(t *testing.T) {
	// Example 2 of the paper: both dimensions carry a dependence; pin the
	// wavefront to dimension 1 explicitly.
	n := 15
	bounds := grid.MustRegion(grid.NewRange(0, n), grid.NewRange(0, n))
	region := grid.MustRegion(grid.NewRange(1, n), grid.NewRange(1, n))
	blk := scan.NewScan(region, scan.Stmt{
		LHS: expr.Ref("a"),
		RHS: expr.Binary{Op: expr.Mul, L: expr.Const(0.5),
			R: expr.Binary{Op: expr.Add,
				L: expr.Ref("a").At(grid.North).Prime(),
				R: expr.Ref("a").At(grid.West).Prime()}},
	})
	stats := checkAgainstSerialDims(t, blk, []string{"a"}, bounds, Config{Procs: 3, Block: 4}, 1, 0)
	if stats.WavefrontDim != 1 || stats.TileDim != 0 {
		t.Errorf("dims = (%d,%d), want (1,0)", stats.WavefrontDim, stats.TileDim)
	}
}

func TestPlainMultiStatementUnsupported(t *testing.T) {
	n := 8
	bounds := grid.Square(2, 0, n)
	region := grid.Square(2, 1, n-1)
	blk := scan.NewPlain(region,
		scan.Stmt{LHS: expr.Ref("a"), RHS: expr.Const(1)},
		scan.Stmt{LHS: expr.Ref("b"), RHS: expr.Const(2)},
	)
	env := env2([]string{"a", "b"}, bounds)
	_, err := Run(blk, env, DefaultConfig(2, 0))
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
}

// TestRandomizedEquivalence fuzzes region shapes, processor counts, and
// block sizes for the Tomcatv block.
func TestRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 12 + rng.Intn(40)
		blk, names := tomcatv(n)
		bounds := grid.MustRegion(grid.NewRange(1, n), grid.NewRange(1, n))
		rows := n - 3 // region rows
		p := 1 + rng.Intn(4)
		if p > rows {
			p = rows
		}
		b := rng.Intn(n)
		checkAgainstSerial(t, blk, names, bounds, DefaultConfig(p, b))
	}
}

func TestPlanReporting(t *testing.T) {
	n := 20
	blk, names := tomcatv(n)
	bounds := grid.MustRegion(grid.NewRange(1, n), grid.NewRange(1, n))
	env := env2(names, bounds)
	seed(env, bounds, 1)
	wDim, tDim, tiles, piped, err := Plan(blk, env, DefaultConfig(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if wDim != 0 || tDim != 1 {
		t.Errorf("plan dims = (%d,%d), want (0,1)", wDim, tDim)
	}
	if tiles != 5 { // width 17 → ceil(17/4) = 5
		t.Errorf("tiles = %d, want 5", tiles)
	}
	if len(piped) != 3 {
		t.Errorf("pipelined = %v", piped)
	}
}
