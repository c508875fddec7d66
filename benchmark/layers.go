package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"wavefront"
	"wavefront/internal/bufpool"
	"wavefront/internal/ckpt"
	"wavefront/internal/comm"
	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/pipeline"
	"wavefront/internal/scan"
	"wavefront/internal/taskdag"
	"wavefront/internal/workload"
	"wavefront/internal/zpl"
)

// Layer probes: every module's exported functions timed from outside, on
// fixed inputs that do not depend on which workload the run is for. A
// traced run of any workload reports all of them, so a change to one layer
// can be read beside the workload it was meant to move. No probe adds a
// span inside the program; that is a later issue.

// step is one standalone layer call of a workload's ladder.
type step struct {
	name string
	fn   func() error
}

// oneshotLadder is the set-up a one-shot RunPipelined performs before and
// inside its parallel section, as standalone calls on the same inputs.
func oneshotLadder(fwd *wavefront.Block, genv *wavefront.Env, cfg wavefront.Pipeline) []step {
	pcfg := pipeline.DefaultConfig(cfg.Procs, cfg.Block)
	names := blockArrays(fwd)
	return []step{
		{"dep.analyze", func() error {
			_, err := scan.Analyze(fwd, dep.Preference{PreferLow: true})
			return err
		}},
		// Plan runs the dependence analysis itself, so this leg contains
		// the one above.
		{"pipeline.plan", func() error {
			_, _, _, _, err := pipeline.Plan(fwd, genv, pcfg)
			return err
		}},
		{"comm.topology", func() error { return buildTopology(cfg.Procs, cfg.Transport) }},
		// One kernel per rank; inside the real op the ranks build theirs in
		// parallel, within PipelineStats.Elapsed.
		{"kernel.lower", func() error {
			for r := 0; r < cfg.Procs; r++ {
				if _, err := scan.NewKernel(fwd, genv); err != nil {
					return err
				}
			}
			return nil
		}},
		// The ranks' local slabs: every array the block references, over a
		// rank's share of the rows plus one halo row. Also inside Elapsed.
		{"field.alloc", func() error {
			all := genv.Arrays[names[0]].Bounds()
			rows := all.Dim(0).Size()/cfg.Procs + 1
			slab := grid.MustRegion(grid.NewRange(1, rows), all.Dim(1))
			for r := 0; r < cfg.Procs; r++ {
				for _, name := range names {
					if _, err := field.New(name, slab, field.RowMajor); err != nil {
						return err
					}
				}
			}
			return nil
		}},
	}
}

// serialLadder is what a serial Exec does before its loop nest runs.
func serialLadder(env *wavefront.Env, blocks ...*wavefront.Block) []step {
	return []step{
		{"dep.analyze", func() error {
			for _, b := range blocks {
				if _, err := scan.Analyze(b, dep.Preference{PreferLow: true}); err != nil {
					return err
				}
			}
			return nil
		}},
		{"kernel.lower", func() error {
			for _, b := range blocks {
				if _, err := scan.NewKernel(b, env); err != nil {
					return err
				}
			}
			return nil
		}},
	}
}

// zplLadder is the front end of a pass as standalone calls.
func zplLadder(progs []zplSource) []step {
	return []step{
		{"zpl.lex", func() error {
			for _, p := range progs {
				if _, err := zpl.LexAll(p.src); err != nil {
					return err
				}
			}
			return nil
		}},
		{"zpl.parse", func() error {
			for _, p := range progs {
				if _, err := zpl.Parse(p.src); err != nil {
					return err
				}
			}
			return nil
		}},
	}
}

// blockArrays lists the arrays a block references, written first.
func blockArrays(b *wavefront.Block) []string {
	var names []string
	seen := map[string]bool{}
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	for _, s := range b.Stmts {
		add(s.LHS.Name)
	}
	for _, s := range b.Stmts {
		for _, ref := range expr.Refs(s.RHS) {
			add(ref.Name)
		}
	}
	return names
}

func buildTopology(p int, tc wavefront.TransportConfig) error {
	topo, err := comm.NewTopology(p)
	if err != nil {
		return err
	}
	if err := topo.SetTransport(tc); err != nil {
		return err
	}
	return topo.Close()
}

// prober collects probe metrics and the first error.
type prober struct {
	e   env
	out []metric
	err error
}

func (p *prober) add(name string, v float64, unit string, n int) {
	p.out = append(p.out, metric{name, v, unit, n})
}

func (p *prober) fail(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// median times fn reps times (prep, untimed, runs before each call when
// non-nil) and returns the median call in ns.
func (p *prober) median(reps int, prep func(), fn func() error) float64 {
	ns := make([]int64, 0, reps)
	for i := 0; i < reps && p.err == nil; i++ {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		err := fn()
		ns = append(ns, time.Since(t0).Nanoseconds())
		p.fail(err)
	}
	return quantile(ns, 0.5)
}

// allocs is the mean number of heap objects one call of fn allocates.
func (p *prober) allocs(reps int, fn func() error) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < reps && p.err == nil; i++ {
		p.fail(fn())
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(reps)
}

// runProbes measures every workload-independent per-layer metric.
func runProbes(e env) ([]metric, error) {
	e.traced = false
	p := &prober{e: e}
	for _, probe := range []func(){
		p.coldLadder, p.onOffRatios, p.zplFrontEnd, p.analysis, p.kernels,
		p.commLinks, p.taskDAG, p.sessions, p.fieldsAndPools, p.checkpoints,
	} {
		if p.err != nil {
			break
		}
		probe()
	}
	return p.out, p.err
}

// coldLadder runs cold_oneshot ops, each preceded by its ladder, and
// reports the legs beside the op they decompose.
func (p *prober) coldLadder() {
	in, err := setUp("cold_oneshot", p.e)
	if err != nil {
		p.fail(err)
		return
	}
	const reps = 100
	legs := map[string][]int64{}
	var elapsed []int64
	hooks := passHooks{
		before: func() {
			for _, s := range in.ladder {
				t0 := time.Now()
				p.fail(s.fn())
				legs[s.name] = append(legs[s.name], time.Since(t0).Nanoseconds())
			}
		},
		after: func() { elapsed = append(elapsed, in.last.elapsed.Nanoseconds()) },
	}
	ps := runPass(in, nil, limit{maxOps: reps}, hooks)
	if ps.failed > 0 {
		p.fail(fmt.Errorf("probe cold ladder: %w", ps.firstErr))
		return
	}
	us := func(name string) float64 { return quantile(legs[name], 0.5) / 1e3 }
	p.add("dep.analyze_us", us("dep.analyze"), "us", reps)
	p.add("pipeline.plan_us", us("pipeline.plan"), "us", reps)
	p.add("comm.topology_us", us("comm.topology"), "us", reps)
	p.add("kernel.lower_us", us("kernel.lower")/procs, "us", reps)
	p.add("field.alloc_us", us("field.alloc"), "us", reps)
	for _, s := range in.ladder {
		if s.name == "kernel.lower" {
			p.add("kernel.lower_allocs", p.allocs(20, s.fn)/procs, "count", 20)
		}
	}
	// What the caller's wall-clock holds beyond plan, topology build and the
	// parallel section. Kernel build and local-field allocation happen
	// inside the parallel section, so they are already inside Elapsed.
	op := quantile(ps.samples, 0.5)
	accounted := quantile(legs["pipeline.plan"], 0.5) + quantile(legs["comm.topology"], 0.5) + quantile(elapsed, 0.5)
	p.add("pipeline.elapsed_us", quantile(elapsed, 0.5)/1e3, "us", reps)
	p.add("pipeline.unattributed_share", 1-accounted/op, "ratio", reps)

	unix := wavefront.TransportConfig{Kind: wavefront.TransportUnix, Addr: p.sockPath()}
	p.add("comm.topology_unix_us", p.median(30, nil, func() error { return buildTopology(procs, unix) })/1e3, "us", 30)

	// One recorded op, for the critical-path analyzer.
	tin, err := setUp("cold_oneshot", env{sz: p.e.sz, seed: p.e.seed, traced: true, workDir: p.e.workDir, repoRoot: p.e.repoRoot})
	if err != nil {
		p.fail(err)
		return
	}
	p.add("critpath.analyze_us", p.median(20, nil, func() error {
		_, err := wavefront.AnalyzeCritPath(tin.trace, tin.metrics)
		return err
	})/1e3, "us", 20)
}

func (p *prober) sockPath() string {
	return filepath.Join(p.e.workDir, fmt.Sprintf("probe-%d.sock", os.Getpid()))
}

// onOffRatios prices each optional layer alone: the cold_oneshot op with
// exactly one layer on against the same op with none, interleaved op by op
// so both sides see the same machine, as a ratio of medians.
func (p *prober) onOffRatios() {
	t, _, err := newTomcatv(p.e.sz.oneshotN, p.e.seed)
	if err != nil {
		p.fail(err)
		return
	}
	fwd := t.ForwardBlock()
	snap := takeSnapshot(t.Env, forwardArrays...)
	base := wavefront.Pipeline{Procs: procs, Block: p.e.sz.oneshotBlock}
	variants := []struct {
		name string
		set  func(c *wavefront.Pipeline)
	}{
		{"trace.on_off_ratio", func(c *wavefront.Pipeline) { c.Trace = wavefront.NewTraceRecorder(procs) }},
		{"metrics.on_off_ratio", func(c *wavefront.Pipeline) { c.Metrics = wavefront.NewMetrics(procs) }},
		{"critpath.flight_on_off_ratio", func(c *wavefront.Pipeline) { c.Postmortem = wavefront.NewFlightRecorder("") }},
		{"bufpool.on_off_ratio", func(c *wavefront.Pipeline) { c.Pool = wavefront.NewBufferPool(procs) }},
		{"ckpt.on_off_ratio", func(c *wavefront.Pipeline) {
			c.Checkpoint = &wavefront.Checkpoint{Every: 2, Store: wavefront.NewCheckpointMemStore()}
		}},
		{"comm.unix_on_off_ratio", func(c *wavefront.Pipeline) {
			c.Transport = wavefront.TransportConfig{Kind: wavefront.TransportUnix, Addr: p.sockPath()}
		}},
	}
	const pairs = 30
	run := func(c wavefront.Pipeline) int64 {
		snap.restore()
		c.Trace.Reset()
		t0 := time.Now()
		_, err := wavefront.RunPipelined(fwd, t.Env, c)
		d := time.Since(t0).Nanoseconds()
		p.fail(err)
		return d
	}
	for _, v := range variants {
		on := base
		v.set(&on)
		var offNs, onNs []int64
		for i := 0; i < pairs+3 && p.err == nil; i++ {
			a, b := run(base), run(on)
			if i >= 3 { // the first pairs warm the layer's pools and rings
				offNs, onNs = append(offNs, a), append(onNs, b)
			}
		}
		p.add(v.name, quantile(onNs, 0.5)/quantile(offNs, 0.5), "ratio", pairs)
	}
}

// zplFrontEnd times the front end and interpreter over the testdata
// programs.
func (p *prober) zplFrontEnd() {
	progs, err := loadZPL(p.e.repoRoot, zplPrograms)
	if err != nil {
		p.fail(err)
		return
	}
	ladder := zplLadder(progs)
	tokens := 0
	var parsed []*zpl.Program
	for _, s := range progs {
		toks, err := zpl.LexAll(s.src)
		p.fail(err)
		tokens += len(toks)
		prog, err := zpl.Parse(s.src)
		p.fail(err)
		parsed = append(parsed, prog)
	}
	p.add("zpl.tokens_per_pass", float64(tokens), "count", 1)
	p.add("zpl.parse_us", p.median(30, nil, ladder[1].fn)/1e3, "us", 30)
	p.add("zpl.interp_us", p.median(20, nil, func() error {
		for _, prog := range parsed {
			if err := zpl.New(zpl.Options{}).Run(prog); err != nil {
				return err
			}
		}
		return nil
	})/1e3, "us", 20)
	par := progs[:0:0]
	for _, s := range progs {
		for _, name := range zplParallelPrograms {
			if s.name == name {
				par = append(par, s)
			}
		}
	}
	p.add("zpl.parallel_pass_us", p.median(5, nil, func() error {
		for _, s := range par {
			if _, err := wavefront.RunZPLParallel(s.src, nil, procs, 4); err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
		}
		return nil
	})/1e3, "us", 5)
}

// analysis times skew derivation and the pure per-call overhead of a
// serial Exec on a region too small for the kernel to matter.
func (p *prober) analysis() {
	s, err := newSweep(8, p.e.seed)
	if err != nil {
		p.fail(err)
		return
	}
	an, err := scan.Analyze(s.OctantBlock(s.Octants()[0]), dep.Preference{PreferLow: true})
	if err != nil {
		p.fail(err)
		return
	}
	p.add("dep.skew_derive_us", p.median(200, nil, func() error {
		_, err := dep.DeriveSkew(3, an.UDVs, an.Loop)
		return err
	})/1e3, "us", 200)

	t, _, err := newTomcatv(10, p.e.seed) // wave region 7×8
	if err != nil {
		p.fail(err)
		return
	}
	fwd := t.ForwardBlock()
	snap := takeSnapshot(t.Env, forwardArrays...)
	exec := func() error { return scan.Exec(fwd, t.Env, scan.ExecOptions{}) }
	p.add("scan.exec_small_us", p.median(200, snap.restore, exec)/1e3, "us", 200)
	p.add("scan.exec_small_allocs", p.allocs(50, exec), "count", 50)
}

// kernels reports each kernel path's cost per point beside the handwritten
// loop on the same data, and the two fallback engines.
func (p *prober) kernels() {
	t, o, err := newTomcatv(p.e.sz.bigN, p.e.seed)
	if err != nil {
		p.fail(err)
		return
	}
	fwd, bwd := t.ForwardBlock(), t.BackwardBlock()
	snap := takeSnapshot(t.Env, forwardArrays...)
	saved := map[string][]float64{}
	for _, name := range forwardArrays {
		saved[name] = append([]float64(nil), o.arrays()[name]...)
	}
	restoreOracle := func() {
		for name, v := range saved {
			copy(o.arrays()[name], v)
		}
	}
	const reps = 15
	points := regionPoints(fwd, bwd)
	engine := p.median(reps, snap.restore, func() error {
		if err := scan.Exec(fwd, t.Env, scan.ExecOptions{}); err != nil {
			return err
		}
		return scan.Exec(bwd, t.Env, scan.ExecOptions{})
	})
	hand := p.median(reps, restoreOracle, func() error { o.forward(); o.backward(); return nil })
	p.add("kernel.span_ns_per_point", engine/points, "ns", reps)
	p.add("kernel.span_x_of_ceiling", engine/hand, "ratio", reps)
	for _, eng := range []struct {
		name string
		e    scan.Engine
	}{{"kernel.scalar_ns_per_point", scan.EngineScalar}, {"kernel.closure_ns_per_point", scan.EngineClosure}} {
		ns := p.median(5, snap.restore, func() error { return scan.Exec(fwd, t.Env, scan.ExecOptions{Engine: eng.e}) })
		p.add(eng.name, ns/regionPoints(fwd), "ns", 5)
	}

	s, err := newSweep(p.e.sz.sweepN, p.e.seed)
	if err != nil {
		p.fail(err)
		return
	}
	octant := s.OctantBlock(s.Octants()[0])
	flux := s.Env.Arrays["flux"]
	clear := func() { flux.Fill(0) }
	engine = p.median(reps, clear, func() error { return scan.Exec(octant, s.Env, scan.ExecOptions{}) })
	handFlux := make([]float64, flux.Len())
	src := s.Env.Arrays["src"].Data()
	hand = p.median(reps, func() { clearSlice(handFlux) }, func() error {
		sweepOctantOracle(s.N, handFlux, src, s.Mu, s.Eta, s.Xi, s.Sigma)
		return nil
	})
	p.add("kernel.skewed_ns_per_point", engine/regionPoints(octant), "ns", reps)
	p.add("kernel.skewed_x_of_ceiling", engine/hand, "ratio", reps)

	w, err := workload.NewSW(p.e.sz.swN, p.e.seed, field.RowMajor)
	if err != nil {
		p.fail(err)
		return
	}
	fill := w.Block()
	swSnap := takeSnapshot(w.Env, "s", "e", "f")
	ns := p.median(reps, swSnap.restore, func() error { return scan.Exec(fill, w.Env, scan.ExecOptions{}) })
	p.add("kernel.sw_ns_per_point", ns/regionPoints(fill), "ns", reps)
}

func clearSlice(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

// commLinks times round trips over the channel and unix-socket transports
// at two payload sizes; the slope between them is the per-element cost.
func (p *prober) commLinks() {
	const trips = 200
	roundTrip := func(tc wavefront.TransportConfig, elems int) float64 {
		topo, err := comm.NewTopology(2)
		if err != nil {
			p.fail(err)
			return 0
		}
		if err := topo.SetTransport(tc); err != nil {
			p.fail(err)
			return 0
		}
		defer topo.Close()
		ns := make([]int64, 0, trips)
		p.fail(topo.Run(func(e *comm.Endpoint) error {
			peer := 1 - e.Rank()
			for i := 0; i < trips; i++ {
				if e.Rank() == 0 {
					t0 := time.Now()
					if err := e.Send(peer, i, make([]float64, elems)); err != nil {
						return err
					}
					if _, err := e.Recv(peer, i); err != nil {
						return err
					}
					ns = append(ns, time.Since(t0).Nanoseconds())
				} else {
					data, err := e.Recv(peer, i)
					if err != nil {
						return err
					}
					if err := e.Send(peer, i, data); err != nil {
						return err
					}
				}
			}
			return nil
		}))
		return quantile(ns, 0.5)
	}
	chanCfg := wavefront.TransportConfig{}
	unixCfg := wavefront.TransportConfig{Kind: wavefront.TransportUnix, Addr: p.sockPath()}
	small, large := roundTrip(chanCfg, 32), roundTrip(chanCfg, 4096)
	p.add("comm.pingpong_chan_us", small/1e3, "us", trips)
	// A round trip moves the payload twice.
	p.add("comm.beta_ns_per_elem", (large-small)/(2*(4096-32)), "ns", trips)
	p.add("comm.pingpong_unix_us", roundTrip(unixCfg, 32)/1e3, "us", trips)
}

// taskDAG times the scheduler alone — graph build and a run whose tiles do
// nothing — and the taskdag_tiles op at one worker against two.
func (p *prober) taskDAG() {
	t, _, err := newTomcatv(p.e.sz.bigN, p.e.seed)
	if err != nil {
		p.fail(err)
		return
	}
	an, err := scan.Analyze(t.ForwardBlock(), dep.Preference{PreferLow: true})
	if err != nil {
		p.fail(err)
		return
	}
	build := func(workers int) (*taskdag.Graph, error) {
		return taskdag.New(t.Wave, an.Loop, an.UDVs, taskdag.Options{Workers: workers})
	}
	p.add("taskdag.build_us", p.median(10, nil, func() error {
		g, err := build(dagWorkers)
		if err == nil {
			g.Stop()
		}
		return err
	})/1e3, "us", 10)
	for _, w := range []struct {
		name    string
		workers int
	}{{"taskdag.ns_per_tile_w1", 1}, {"taskdag.ns_per_tile_w2", 2}} {
		g, err := build(w.workers)
		if err != nil {
			p.fail(err)
			return
		}
		g.SetRunner(func(int, grid.Region) {})
		ns := p.median(100, nil, func() error { g.Run(); return nil })
		p.add(w.name, ns/float64(g.Tiles()), "ns", 100)
		g.Stop()
	}
	var p50 [2]float64
	for i, workers := range []int{1, dagWorkers} {
		in, err := setupTaskDAG(p.e, workers)
		if err != nil {
			p.fail(err)
			return
		}
		ps := runPass(in, nil, limit{maxOps: 3 * in.chunk}, passHooks{})
		in.close()
		if ps.failed > 0 {
			p.fail(fmt.Errorf("probe taskdag w=%d: %w", workers, ps.firstErr))
			return
		}
		p50[i] = quantile(ps.samples[in.chunk:], 0.5) // the first chunk warms the session
	}
	p.add("taskdag.speedup_w2_vs_w1", p50[0]/p50[1], "ratio", 2*p.e.sz.chunkDAG)
}

// sessions times what a Session costs to build and to re-enter, and the
// forward wave naive against pipelined.
func (p *prober) sessions() {
	t, _, err := newTomcatv(p.e.sz.bigN, p.e.seed)
	if err != nil {
		p.fail(err)
		return
	}
	blocks := t.Blocks()
	cfg := wavefront.SessionConfig{Procs: procs, Domain: t.All, Block: p.e.sz.bigBlock, Pool: wavefront.NewBufferPool(procs)}
	var sess *wavefront.Session
	p.add("pipeline.session_setup_us", p.median(10, nil, func() error {
		var err error
		sess, err = wavefront.NewSession(t.Env, blocks, cfg)
		return err
	})/1e3, "us", 10)
	if p.err != nil {
		return
	}
	// An empty body leaves rank rebuild, scatter and gather.
	rerun := func() error { return sess.Run(func(*wavefront.Rank) error { return nil }) }
	p.add("pipeline.session_rerun_us", p.median(10, nil, rerun)/1e3, "us", 10)
	p.add("pipeline.session_rerun_allocs", p.allocs(5, rerun), "count", 5)

	fwd := t.ForwardBlock()
	snap := takeSnapshot(t.Env, forwardArrays...)
	wave := func(block int) float64 {
		c := cfg
		c.Block = block
		s, err := wavefront.NewSession(t.Env, []*wavefront.Block{fwd}, c)
		if err != nil {
			p.fail(err)
			return 0
		}
		var ns []int64
		snap.restore()
		p.fail(s.Run(func(r *wavefront.Rank) error {
			if err := r.Barrier(); err != nil {
				return err
			}
			for i := 0; i < 3+20; i++ {
				t0 := time.Now()
				if err := r.Exec(fwd); err != nil {
					return err
				}
				if err := r.Barrier(); err != nil {
					return err
				}
				if r.ID() == 0 && i >= 3 {
					ns = append(ns, time.Since(t0).Nanoseconds())
				}
			}
			return nil
		}))
		return quantile(ns, 0.5)
	}
	naive, piped := wave(0), wave(p.e.sz.bigBlock)
	p.add("pipeline.naive_vs_pipelined", naive/piped, "ratio", 20)
}

// fieldsAndPools times boundary packing and a pool lease.
func (p *prober) fieldsAndPools() {
	n := p.e.sz.bigN
	f := field.MustNew("a", grid.MustRegion(grid.NewRange(1, n), grid.NewRange(1, n)), field.RowMajor)
	row := grid.MustRegion(grid.NewRange(n/2, n/2), grid.NewRange(1, n))
	buf := make([]float64, n)
	const inner = 1000
	ns := p.median(50, nil, func() error {
		for i := 0; i < inner; i++ {
			if _, err := f.PackInto(row, buf); err != nil {
				return err
			}
			if _, err := f.UnpackFrom(row, buf); err != nil {
				return err
			}
		}
		return nil
	})
	p.add("field.pack_ns_per_elem", ns/float64(inner*2*n), "ns", 50)

	pool := bufpool.New(procs)
	pool.Put(0, pool.Get(0, n))
	ns = p.median(50, nil, func() error {
		for i := 0; i < inner; i++ {
			pool.Put(0, pool.Get(0, n))
		}
		return nil
	})
	p.add("bufpool.get_put_ns", ns/inner, "ns", 50)
}

// checkpoints times saving one rank-portion snapshot of prod_oneshot's
// shape to the memory and the file store.
func (p *prober) checkpoints() {
	n := p.e.sz.oneshotN
	rows := n/procs + 1
	snap := &ckpt.Snapshot{Rank: 0, Wave: 1, RecvCursor: make([]int64, procs), SendCursor: make([]int64, procs), Ints: []int64{0}}
	for _, name := range []string{"aa", "d", "dd", "r", "rx", "ry"} {
		snap.Fields = append(snap.Fields, ckpt.FieldSnap{Name: name, Dims: []int{1, rows, 1, n}, Data: make([]float64, rows*n)})
	}
	p.add("ckpt.snapshot_bytes", float64(len(snap.Fields)*rows*n*8), "B", 1)
	mem := ckpt.NewMemStore()
	p.add("ckpt.save_us", p.median(30, nil, func() error { return mem.Save(snap) })/1e3, "us", 30)
	dir := filepath.Join(p.e.workDir, fmt.Sprintf("ckpt-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	fs, err := ckpt.NewFileStore(dir)
	if err != nil {
		p.fail(err)
		return
	}
	p.add("ckpt.save_file_us", p.median(30, nil, func() error { return fs.Save(snap) })/1e3, "us", 30)
	p.fail(fs.Close())
}
