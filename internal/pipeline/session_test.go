package pipeline

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"wavefront/internal/comm"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/scan"
	"wavefront/internal/workload"
)

// TestSessionTomcatvWholeProgram runs several full Tomcatv iterations —
// parallel stencils, both wavefront sweeps, reductions — through a
// persistent session and compares every array against serial execution.
func TestSessionTomcatvWholeProgram(t *testing.T) {
	n, iters := 26, 3
	for _, p := range []int{1, 2, 4} {
		ref, err := workload.NewTomcatv(n, field.RowMajor)
		if err != nil {
			t.Fatal(err)
		}
		par, _ := workload.NewTomcatv(n, field.RowMajor)

		var refResid []float64
		for i := 0; i < iters; i++ {
			if _, err := ref.Step(); err != nil {
				t.Fatal(err)
			}
			refResid = append(refResid, ref.ResidualMax())
		}

		blocks := par.Blocks()
		sess, err := NewSession(par.Env, blocks, SessionConfig{
			Procs: p, Domain: par.All, Block: 4,
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		var parResid []float64
		err = sess.Run(func(r *Rank) error {
			absRx := expr.Call{Fn: expr.Abs, Args: []expr.Node{expr.Ref("rx")}}
			absRy := expr.Call{Fn: expr.Abs, Args: []expr.Node{expr.Ref("ry")}}
			for i := 0; i < iters; i++ {
				for _, b := range blocks {
					if err := r.Exec(b); err != nil {
						return err
					}
				}
				vx, err := r.Reduce(scan.MaxReduce, par.Interior, absRx)
				if err != nil {
					return err
				}
				vy, err := r.Reduce(scan.MaxReduce, par.Interior, absRy)
				if err != nil {
					return err
				}
				if r.ID() == 0 {
					parResid = append(parResid, math.Max(vx, vy))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for _, name := range workload.TomcatvArrays {
			if d := par.Env.Arrays[name].MaxAbsDiff(par.All, ref.Env.Arrays[name]); d != 0 {
				t.Errorf("p=%d: %s differs from serial by %g", p, name, d)
			}
		}
		for i := range refResid {
			if parResid[i] != refResid[i] {
				t.Errorf("p=%d iter %d: residual %g != %g", p, i, parResid[i], refResid[i])
			}
		}
	}
}

// TestSessionSimpleWholeProgram: the SIMPLE step (hydro + both conduction
// sweeps) through a session.
func TestSessionSimpleWholeProgram(t *testing.T) {
	n, steps := 24, 3
	ref, err := workload.NewSimple(n, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	par, _ := workload.NewSimple(n, field.RowMajor)
	for i := 0; i < steps; i++ {
		if _, err := ref.Step(); err != nil {
			t.Fatal(err)
		}
	}
	blocks := par.Blocks()
	sess, err := NewSession(par.Env, blocks, SessionConfig{Procs: 3, Domain: par.All, Block: 5})
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Run(func(r *Rank) error {
		for i := 0; i < steps; i++ {
			for _, b := range blocks {
				if err := r.Exec(b); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workload.SimpleArrays {
		if d := par.Env.Arrays[name].MaxAbsDiff(par.All, ref.Env.Arrays[name]); d != 0 {
			t.Errorf("%s differs from serial by %g", name, d)
		}
	}
	if sess.Stats().Comm.Messages == 0 {
		t.Error("session reported no communication")
	}
}

// TestSessionHaloLaziness: halos are exchanged only when stale. A pair of
// parallel blocks where the second reads the first's output across the
// boundary must exchange once per iteration, and a third block reading an
// array never rewritten must not re-exchange it.
func TestSessionHaloLaziness(t *testing.T) {
	n := 12
	bounds := grid.MustRegion(grid.NewRange(0, n+1), grid.NewRange(0, n+1))
	inner := grid.Square(2, 1, n)
	env := &expr.MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{}}
	for _, name := range []string{"a", "b", "c", "r"} {
		f := field.MustNew(name, bounds, field.RowMajor)
		f.FillFunc(bounds, func(p grid.Point) float64 { return float64(p[0] + 2*p[1]) })
		env.Arrays[name] = f
	}
	writeA := scan.NewPlain(inner, scan.Stmt{LHS: expr.Ref("a"), RHS: expr.Binary{
		Op: expr.Add, L: expr.Ref("a"), R: expr.Const(1)}})
	readA := scan.NewPlain(inner, scan.Stmt{LHS: expr.Ref("b"), RHS: expr.Binary{
		Op: expr.Add, L: expr.Ref("a").At(grid.North), R: expr.Ref("a").At(grid.South)}})
	readC := scan.NewPlain(inner, scan.Stmt{LHS: expr.Ref("r"), RHS: expr.Ref("c").At(grid.North)}) // c never written

	p := 3
	sess, err := NewSession(env, []*scan.Block{writeA, readA, readC}, SessionConfig{Procs: p, Domain: bounds})
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Run(func(r *Rank) error {
		for i := 0; i < 4; i++ {
			if err := r.Exec(writeA); err != nil {
				return err
			}
			if err := r.Exec(readA); err != nil {
				return err
			}
			if err := r.Exec(readC); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Expected messages: per iteration, readA triggers one exchange of "a":
	// each interior boundary swaps two messages... each rank sends to each
	// neighbour once => total messages per exchange = 2*(p-1). c is never
	// dirty, so readC never exchanges. 4 iterations.
	want := int64(4 * 2 * (p - 1))
	if got := sess.Stats().Comm.Messages; got != want {
		t.Errorf("messages = %d, want %d (halo exchange must be lazy)", got, want)
	}

	// Correctness of the final state against serial.
	serialEnv := &expr.MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{}}
	for _, name := range []string{"a", "b", "c", "r"} {
		f := field.MustNew(name, bounds, field.RowMajor)
		f.FillFunc(bounds, func(p grid.Point) float64 { return float64(p[0] + 2*p[1]) })
		serialEnv.Arrays[name] = f
	}
	for i := 0; i < 4; i++ {
		for _, b := range []*scan.Block{writeA, readA, readC} {
			if err := scan.Exec(b, serialEnv, scan.ExecOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range []string{"a", "b", "r"} {
		if d := env.Arrays[name].MaxAbsDiff(bounds, serialEnv.Arrays[name]); d != 0 {
			t.Errorf("%s differs from serial by %g", name, d)
		}
	}
}

// TestSessionBackwardSweepDirection: a session must route a south-to-north
// wavefront through the opposite neighbours.
func TestSessionBackwardSweep(t *testing.T) {
	n := 16
	bounds := grid.MustRegion(grid.NewRange(1, n+1), grid.NewRange(1, n))
	region := grid.MustRegion(grid.NewRange(1, n), grid.NewRange(1, n))
	mk := func() *expr.MapEnv {
		env := &expr.MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{}}
		f := field.MustNew("a", bounds, field.RowMajor)
		f.FillFunc(bounds, func(p grid.Point) float64 { return 1 + 0.01*float64(p[0]*p[1]%13) })
		env.Arrays["a"] = f
		return env
	}
	blk := scan.NewScan(region, scan.Stmt{
		LHS: expr.Ref("a"),
		RHS: expr.Binary{Op: expr.Add,
			L: expr.MulN(expr.Const(0.5), expr.Ref("a").At(grid.South).Prime()),
			R: expr.Const(0.1)},
	})
	ref := mk()
	if err := scan.Exec(blk, ref, scan.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	par := mk()
	sess, err := NewSession(par, []*scan.Block{blk}, SessionConfig{Procs: 4, Domain: region, Block: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(func(r *Rank) error { return r.Exec(blk) }); err != nil {
		t.Fatal(err)
	}
	if d := par.Arrays["a"].MaxAbsDiff(region, ref.Arrays["a"]); d != 0 {
		t.Errorf("backward sweep differs by %g", d)
	}
}

func TestSessionErrors(t *testing.T) {
	n := 8
	bounds := grid.Square(2, 0, n+1)
	inner := grid.Square(2, 1, n)
	env := &expr.MapEnv{Arrays: map[string]*field.Field{
		"a": field.MustNew("a", bounds, field.RowMajor),
	}, Scalars: map[string]float64{}}
	blk := scan.NewPlain(inner, scan.Stmt{LHS: expr.Ref("a"), RHS: expr.Const(1)})

	if _, err := NewSession(env, []*scan.Block{blk}, SessionConfig{Procs: 0, Domain: inner}); err == nil {
		t.Error("0 ranks must fail")
	}
	if _, err := NewSession(env, []*scan.Block{blk}, SessionConfig{Procs: 50, Domain: inner}); err == nil {
		t.Error("too many ranks must fail")
	}
	if _, err := NewSession(env, []*scan.Block{blk}, SessionConfig{Procs: 2, Domain: inner, WavefrontDim: 5}); err == nil {
		t.Error("bad wavefront dim must fail")
	}
	rank1 := scan.NewPlain(grid.MustRegion(grid.NewRange(1, n)), scan.Stmt{LHS: expr.Ref("a"), RHS: expr.Const(1)})
	if _, err := NewSession(env, []*scan.Block{rank1}, SessionConfig{Procs: 2, Domain: inner}); err == nil {
		t.Error("rank mismatch must fail")
	}

	sess, err := NewSession(env, []*scan.Block{blk}, SessionConfig{Procs: 2, Domain: inner})
	if err != nil {
		t.Fatal(err)
	}
	other := scan.NewPlain(inner, scan.Stmt{LHS: expr.Ref("a"), RHS: expr.Const(2)})
	err = sess.Run(func(r *Rank) error { return r.Exec(other) })
	if err == nil {
		t.Error("executing an unregistered block must fail")
	}
}

// TestSessionReduceOps checks the three reduction folds across ranks.
func TestSessionReduceOps(t *testing.T) {
	n := 9
	bounds := grid.Square(2, 1, n)
	env := &expr.MapEnv{Arrays: map[string]*field.Field{
		"a": field.MustNew("a", bounds, field.RowMajor),
	}, Scalars: map[string]float64{}}
	env.Arrays["a"].FillFunc(bounds, func(p grid.Point) float64 {
		return float64(p[0]*10 + p[1])
	})
	blk := scan.NewPlain(bounds, scan.Stmt{LHS: expr.Ref("a"), RHS: expr.Ref("a")})
	sess, err := NewSession(env, []*scan.Block{blk}, SessionConfig{Procs: 3, Domain: bounds})
	if err != nil {
		t.Fatal(err)
	}
	var sum, max, min float64
	err = sess.Run(func(r *Rank) error {
		s, err := r.Reduce(scan.SumReduce, bounds, expr.Ref("a"))
		if err != nil {
			return err
		}
		mx, err := r.Reduce(scan.MaxReduce, bounds, expr.Ref("a"))
		if err != nil {
			return err
		}
		mn, err := r.Reduce(scan.MinReduce, bounds, expr.Ref("a"))
		if err != nil {
			return err
		}
		if r.ID() == 0 {
			sum, max, min = s, mx, mn
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantSum := 0.0
	bounds.Each(nil, func(p grid.Point) { wantSum += float64(p[0]*10 + p[1]) })
	if sum != wantSum {
		t.Errorf("sum = %g, want %g", sum, wantSum)
	}
	if max != 99 || min != 11 {
		t.Errorf("max/min = %g/%g, want 99/11", max, min)
	}
}

// TestProducerOnlyRankIsHeldBack: a forward sweep repeated in a loop sends
// rank 0 nothing — its one halo read, aa@north, is of an array the sweep
// never dirties, so no refresh flows back either — and nothing in the
// program keeps it from finishing every sweep before rank 1 wakes up. The
// session's own link bound does: one sweep's messages per link at the
// default configuration, so rank 0 completes sweep j only once rank 1 has
// consumed every message of sweep j-1, and queued messages and buffers in
// flight stay independent of how long the loop runs.
func TestProducerOnlyRankIsHeldBack(t *testing.T) {
	tom, err := workload.NewTomcatv(48, field.RowMajor)
	if err != nil {
		t.Fatal(err)
	}
	blk := tom.ForwardBlock()
	const block, sweeps = 8, 200
	cfg := SessionConfig{Procs: 2, Domain: tom.All, Block: block}
	sess, err := NewSession(tom.Env, []*scan.Block{blk}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	perSweep := (tom.WaveCols() + block - 1) / block
	if got := sess.linkCapacity(); got != perSweep {
		t.Errorf("default link bound = %d, want one sweep's %d messages", got, perSweep)
	}
	for _, c := range []struct {
		name string
		edit func(*SessionConfig)
		want int
	}{
		{"a configured capacity wins", func(c *SessionConfig) { c.LinkCapacity = 3 }, 3},
		{"sockets have no bounded links", func(c *SessionConfig) { c.Transport.Kind = comm.TransportUnix }, 0},
		{"the naive schedule sends one message per sweep", func(c *SessionConfig) { c.Block = 0 }, 1},
	} {
		cc := cfg
		c.edit(&cc)
		s, err := NewSession(tom.Env, []*scan.Block{blk}, cc)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.linkCapacity(); got != c.want {
			t.Errorf("%s: link bound = %d, want %d", c.name, got, c.want)
		}
	}

	var done [2]atomic.Int64
	maxLead := int64(0)
	err = sess.Run(func(r *Rank) error {
		if r.ID() == 1 {
			// Long enough for an unthrottled rank 0 to run the whole loop.
			time.Sleep(50 * time.Millisecond)
		}
		for i := 0; i < sweeps; i++ {
			if err := r.Exec(blk); err != nil {
				return err
			}
			mine := done[r.ID()].Add(1)
			if r.ID() == 0 {
				maxLead = max(maxLead, mine-done[1].Load())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxLead > 2 {
		t.Errorf("rank 0 finished %d sweeps more than rank 1 had; the link bound allows 2", maxLead)
	}
	if sess.Stats().Comm.BlockedSends == 0 {
		t.Error("no send ever blocked: nothing held rank 0 back while rank 1 slept")
	}
}
