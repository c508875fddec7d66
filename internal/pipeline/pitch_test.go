package pipeline

import (
	"math"
	"testing"

	"wavefront/internal/expr"
	"wavefront/internal/fault"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/scan"
)

// pitchProgram is a small whole program on a 24 x 512 domain — the one
// shape in this package whose rows are a whole number of 4 KB, so the one
// whose rank-local fields get a padded pitch: a five-point stencil, a
// north-to-south sweep, a south-to-north sweep, and a max reduction whose
// operand reads across the slab boundary.
type pitchProgram struct {
	env      *expr.MapEnv
	all      grid.Region
	interior grid.Region
	blocks   []*scan.Block
	operand  expr.Node
}

func newPitchProgram() pitchProgram {
	const rows, cols = 24, 512
	all := grid.MustRegion(grid.NewRange(1, rows), grid.NewRange(1, cols))
	interior := grid.MustRegion(grid.NewRange(2, rows-1), grid.NewRange(2, cols-1))
	env := &expr.MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{}}
	for k, name := range []string{"a", "b", "c"} {
		f := field.MustNew(name, all, field.RowMajor)
		f.FillFunc(all, func(p grid.Point) float64 {
			return 1 + 0.25*math.Sin(float64(3*p[0]+k)+0.01*float64(p[1])) + 0.001*float64(p[1]%17)
		})
		env.Arrays[name] = f
	}
	ref := expr.Ref
	stencil := scan.NewPlain(interior, scan.Stmt{LHS: ref("b"), RHS: expr.MulN(expr.Const(0.2), expr.AddN(
		ref("a"), ref("a").At(grid.North), ref("a").At(grid.South), ref("a").At(grid.East), ref("a").At(grid.West)))})
	down := scan.NewScan(interior,
		scan.Stmt{LHS: ref("c"), RHS: expr.Binary{Op: expr.Add,
			L: expr.MulN(expr.Const(0.5), ref("c").At(grid.North).Prime()),
			R: expr.MulN(expr.Const(0.5), ref("b"))}},
		scan.Stmt{LHS: ref("a"), RHS: expr.Binary{Op: expr.Sub,
			L: ref("c"),
			R: expr.MulN(expr.Const(0.125), ref("b").At(grid.North))}})
	up := scan.NewScan(interior, scan.Stmt{LHS: ref("a"), RHS: expr.Binary{Op: expr.Add,
		L: expr.MulN(expr.Const(0.75), ref("a")),
		R: expr.MulN(expr.Const(0.25), ref("a").At(grid.South).Prime())}})
	operand := expr.Call{Fn: expr.Abs, Args: []expr.Node{expr.Binary{Op: expr.Sub, L: ref("a"), R: ref("a").At(grid.North)}}}
	return pitchProgram{env, all, interior, []*scan.Block{stencil, down, up}, operand}
}

const pitchIters = 2

// serial runs the program on the closure engine over the dense global
// arrays and returns the reduction after each iteration.
func (pp pitchProgram) serial(t *testing.T) []float64 {
	t.Helper()
	var out []float64
	for it := 0; it < pitchIters; it++ {
		for _, b := range pp.blocks {
			if err := scan.Exec(b, pp.env, scan.ExecOptions{Engine: scan.EngineClosure}); err != nil {
				t.Fatal(err)
			}
		}
		v, err := scan.Reduce(scan.MaxReduce, pp.interior, pp.operand, pp.env)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	return out
}

// TestPaddedPitchSessionBitIdentity runs the program through sessions whose
// local fields are padded — static schedule at p = 2 and 3 — and, for the
// other side of that choice, through the task DAG with two workers, whose
// fields of the same shape stay dense: each with a snapshot every 2 cut
// points and one crash in the second iteration's north-to-south sweep, and
// holds arrays and reductions to the serial closure oracle bit for bit.
// Kernels, boundary packing, halo rows, scatter/gather and snapshots (which
// alias the padded storage flat) all address through the pitch here.
func TestPaddedPitchSessionBitIdentity(t *testing.T) {
	want := newPitchProgram()
	wantMax := want.serial(t)
	for _, c := range []struct {
		name    string
		procs   int
		sched   scan.Scheduler
		workers int
	}{
		{"static-p2", 2, scan.SchedStatic, 0},
		{"static-p3", 3, scan.SchedStatic, 0},
		{"taskdag-w2", 2, scan.SchedTaskDAG, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			pp := newPitchProgram()
			// Rank 1's third boundary receive in the third sweep it enters.
			inj := fault.MustNew(fault.Plan{Rules: []fault.Rule{{
				Op: fault.OpRecv, Rank: 1, Peer: 0, Tag: fault.Any, Wave: 3, After: 2, Action: fault.ActCrash}}})
			sess, err := NewSession(pp.env, pp.blocks, SessionConfig{
				Procs: c.procs, Domain: pp.all, Block: 32,
				Scheduler: c.sched, Workers: c.workers,
				Faults: inj, Checkpoint: &CheckpointConfig{Every: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, pitchIters)
			err = sess.Run(func(r *Rank) error {
				// Tiles of 32 columns pad the pitch; the task DAG's wide
				// column chains keep it dense.
				pitch := 520
				if c.sched == scan.SchedTaskDAG {
					pitch = 512
				}
				for _, f := range r.locals {
					if f.Stride(0) != pitch || f.Len() != f.Bounds().Dim(0).Size()*pitch {
						t.Errorf("rank %d: local %s has pitch %d and %d elements over %v; want a %d-element pitch",
							r.ID(), f.Name(), f.Stride(0), f.Len(), f.Bounds(), pitch)
					}
				}
				for it := 0; it < pitchIters; it++ {
					for _, b := range pp.blocks {
						if err := r.Exec(b); err != nil {
							return err
						}
					}
					v, err := r.Reduce(scan.MaxReduce, pp.interior, pp.operand)
					if err != nil {
						return err
					}
					if r.ID() == 0 {
						got[it] = v
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("crash did not recover: %v", err)
			}
			if inj.Fired() == 0 {
				t.Fatal("crash rule never fired")
			}
			if diff := firstBitDifference(pp.env, want.env); diff != "" {
				t.Errorf("differs from the serial closure oracle: %s", diff)
			}
			for it := range wantMax {
				if math.Float64bits(got[it]) != math.Float64bits(wantMax[it]) {
					t.Errorf("iteration %d: reduction %v, serial %v", it, got[it], wantMax[it])
				}
			}
			for name, g := range pp.env.Arrays {
				if g.Len() != pp.all.Size() {
					t.Errorf("the caller's array %s has %d elements, want the dense %d", name, g.Len(), pp.all.Size())
				}
			}
		})
	}
}

// TestLocalTileFollowsTheTiling pins the width Session.rank hands field.NewLocal:
// the static schedule's Block when a registered sweep cuts the array's
// unit-stride dimension into tiles, else 0 — dense storage. A Retune
// between Runs re-pitches the next Run's copies at the new width.
func TestLocalTileFollowsTheTiling(t *testing.T) {
	pp := newPitchProgram()
	rowMajor := pp.env.Arrays["a"]
	colMajor := field.MustNew("cm", pp.all, field.ColMajor)
	for _, c := range []struct {
		name   string
		blocks []*scan.Block
		edit   func(*SessionConfig)
		f      *field.Field
		want   int
	}{
		{"static sweeps tile the columns", pp.blocks, func(*SessionConfig) {}, rowMajor, 32},
		{"a column-major array's unit stride runs down the rows, which no sweep tiles",
			pp.blocks, func(*SessionConfig) {}, colMajor, 0},
		{"no sweep, no tiles", pp.blocks[:1], func(*SessionConfig) {}, rowMajor, 0},
		{"the task DAG walks wide chains", pp.blocks,
			func(c *SessionConfig) { c.Scheduler, c.Workers = scan.SchedTaskDAG, 2 }, rowMajor, 0},
		{"the naive schedule walks whole rows", pp.blocks, func(c *SessionConfig) { c.Block = 0 }, rowMajor, 0},
	} {
		cfg := SessionConfig{Procs: 2, Domain: pp.all, Block: 32}
		c.edit(&cfg)
		sess, err := NewSession(pp.env, c.blocks, cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := sess.localTile(c.f); got != c.want {
			t.Errorf("%s: localTile = %d, want %d", c.name, got, c.want)
		}
	}

	// Tiles of 32 columns pad the 512-wide rows; after Retune(256) the tiles
	// are half a row wide, and the second Run's copies are dense again.
	retuned, err := NewSession(pp.env, pp.blocks, SessionConfig{Procs: 2, Domain: pp.all, Block: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer retuned.Close()
	for _, want := range []struct{ block, pitch int }{{32, 520}, {256, 512}} {
		retuned.Retune(want.block)
		if err := retuned.Run(func(r *Rank) error {
			for _, f := range r.locals {
				if f.Stride(0) != want.pitch {
					t.Errorf("block %d, rank %d: local %s has pitch %d, want %d",
						want.block, r.ID(), f.Name(), f.Stride(0), want.pitch)
				}
			}
			for _, b := range pp.blocks {
				if err := r.Exec(b); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	// A rank-3 sweep distributed along dimension 0 tiles dimension 1, not
	// the unit-stride dimension 2: 512-wide rows stay dense.
	all3 := grid.MustRegion(grid.NewRange(1, 8), grid.NewRange(1, 6), grid.NewRange(1, 512))
	inner3 := grid.MustRegion(grid.NewRange(2, 8), grid.NewRange(1, 6), grid.NewRange(1, 512))
	u := field.MustNew("u", all3, field.RowMajor)
	u.Fill(1)
	env := &expr.MapEnv{Arrays: map[string]*field.Field{"u": u}, Scalars: map[string]float64{}}
	sweep := scan.NewScan(inner3, scan.Stmt{LHS: expr.Ref("u"), RHS: expr.MulN(expr.Const(0.5),
		expr.Ref("u").At(grid.Direction{-1, 0, 0}).Prime())})
	sess, err := NewSession(env, []*scan.Block{sweep}, SessionConfig{Procs: 2, Domain: all3, Block: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pl := sess.plans[sweep]; pl.tDim != 1 {
		t.Fatalf("the rank-3 sweep tiles dimension %d, want 1", pl.tDim)
	}
	if got := sess.localTile(u); got != 0 {
		t.Errorf("rank 3, tiles along dimension 1: localTile = %d, want 0", got)
	}
	if err := sess.Run(func(r *Rank) error {
		if f := r.locals["u"]; f.Stride(1) != 512 {
			t.Errorf("rank %d: local u has pitch %d, want the dense 512", r.ID(), f.Stride(1))
		}
		return r.Exec(sweep)
	}); err != nil {
		t.Fatal(err)
	}
}
