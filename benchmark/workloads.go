package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"wavefront"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/metrics"
	"wavefront/internal/scan"
	"wavefront/internal/workload"
	"wavefront/internal/zpl"
)

// sizes are the problem dimensions. The benchmark always runs fullSizes;
// the self-test runs smallSizes so it finishes in seconds.
type sizes struct {
	oneshotN     int // Tomcatv side of the two one-shot workloads
	oneshotBlock int
	bigN         int // Tomcatv side of the session and span workloads
	bigBlock     int
	sweepN       int // Sweep3D side
	swN          int // Smith-Waterman side
	chunkSession int // iterations per Session.Run on steady_session
	chunkDAG     int // ops per Session.Run on taskdag_tiles
	chunkSpan    int // ops per restore on kernel_span
}

var (
	fullSizes  = sizes{oneshotN: 128, oneshotBlock: 16, bigN: 512, bigBlock: 32, sweepN: 64, swN: 256, chunkSession: 25, chunkDAG: 25, chunkSpan: 10}
	smallSizes = sizes{oneshotN: 32, oneshotBlock: 8, bigN: 32, bigBlock: 8, sweepN: 16, swN: 32, chunkSession: 3, chunkDAG: 3, chunkSpan: 3}
)

// procs is the number of compute goroutines every parallel workload uses;
// GOMAXPROCS is pinned to the same number.
const procs = 2

// workloadNames is the benchmark's workload set, in reporting order. The
// reasons are recorded in BENCHMARK.json and README.md.
var workloadNames = []string{
	"cold_oneshot", "prod_oneshot", "steady_session", "taskdag_tiles",
	"kernel_span", "kernel_skewed", "zpl_programs",
}

// env carries what a workload's set-up needs besides its sizes.
type env struct {
	sz   sizes
	seed int64
	// traced attaches the program's public observers (trace recorder,
	// metrics registry) to every op; the timed pass leaves them off unless
	// the workload itself is defined with them on.
	traced bool
	// workDir holds the unix socket of prod_oneshot; it lies inside the
	// checkout.
	workDir string
	// repoRoot locates testdata for zpl_programs.
	repoRoot string
}

// runStats is what the program's existing observers report about the last
// chunk; the traced pass reads it, the timed pass ignores it.
type runStats struct {
	elapsed  time.Duration // PipelineStats.Elapsed / SessionStats.Elapsed
	messages int64
	elements int64
	summary  *wavefront.TraceSummary
	drift    *wavefront.DriftReport
	pool     *wavefront.BufferPoolStats
}

// instance is one set-up workload, ready to run ops.
type instance struct {
	// points is the number of region points one op sweeps (Σ region sizes
	// of the op's blocks).
	points float64
	// chunk is the number of ops one run call executes.
	chunk int
	// restore writes the primed inputs back; run executes chunk ops, each
	// between rec.begin (which first reads the host-speed reference) and
	// rec.end; verify compares every output bit for bit with the oracle.
	// Only the intervals between start and end are timed.
	restore func()
	run     func(rec *recorder) error
	verify  func() error
	// outputs are the arrays verify compares; the self-test flips a bit in
	// one of them to prove verification is not vacuous. zpl_programs
	// compares text instead and exposes its buffer through corrupt.
	outputs []expectation
	corrupt func()
	// serialNs is the wall time of the same blocks run serially through
	// wavefront.Exec in set-up (0 where the op is already serial).
	serialNs float64
	// The program's observers, non-nil on a traced instance (and on
	// prod_oneshot, which is defined with them on).
	trace   *wavefront.TraceRecorder
	metrics *wavefront.Metrics
	last    runStats
	// ladder is the workload's set-up as standalone layer calls on the same
	// inputs; the traced pass records it as sibling spans before each op.
	ladder []step
	close  func()
}

// flipBit corrupts one output so the next verify must fail.
func (in *instance) flipBit() {
	if in.corrupt != nil {
		in.corrupt()
		return
	}
	d := in.outputs[0].got.Data()
	k := len(d) / 2
	d[k] = math.Float64frombits(math.Float64bits(d[k]) ^ 1)
}

func setupWorkload(name string, e env) (*instance, error) {
	switch name {
	case "cold_oneshot":
		return setupOneshot(e, false)
	case "prod_oneshot":
		return setupOneshot(e, true)
	case "steady_session":
		return setupSteadySession(e)
	case "taskdag_tiles":
		return setupTaskDAG(e, dagWorkers)
	case "kernel_span":
		return setupKernelSpan(e)
	case "kernel_skewed":
		return setupKernelSkewed(e)
	case "zpl_programs":
		return setupZPL(e)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// forwardArrays are the arrays the Tomcatv forward block writes; the
// forward and backward blocks together write the same set.
var forwardArrays = []string{"r", "d", "rx", "ry"}

// expect pairs program arrays with oracle slices after asserting the
// oracle holds only finite normal numbers.
func expect(env *wavefront.Env, want map[string][]float64, names ...string) ([]expectation, error) {
	var exps []expectation
	for _, name := range names {
		if err := assertFinite("oracle "+name, want[name]); err != nil {
			return nil, err
		}
		exps = append(exps, expectation{name: name, got: env.Arrays[name], want: want[name]})
	}
	return exps, nil
}

func regionPoints(blocks ...*wavefront.Block) float64 {
	total := 0
	for _, b := range blocks {
		total += b.Region.Size()
	}
	return float64(total)
}

// timeSerial is the median of a few serial wavefront.Exec passes over
// blocks, restoring first each time.
func timeSerial(env *wavefront.Env, restore func(), blocks ...*wavefront.Block) (float64, error) {
	var ns []int64
	for i := 0; i < 5; i++ {
		restore()
		t0 := time.Now()
		for _, b := range blocks {
			if err := wavefront.Exec(b, env); err != nil {
				return 0, err
			}
		}
		ns = append(ns, time.Since(t0).Nanoseconds())
	}
	return quantile(ns, 0.5), nil
}

// setupOneshot builds cold_oneshot and prod_oneshot: one op is one
// wavefront.RunPipelined of the Tomcatv forward scan block. cold has every
// optional layer off; prod turns on the layers a production caller would.
func setupOneshot(e env, prod bool) (*instance, error) {
	t, o, err := newTomcatv(e.sz.oneshotN, e.seed)
	if err != nil {
		return nil, err
	}
	fwd := t.ForwardBlock()
	cfg := wavefront.Pipeline{Procs: procs, Block: e.sz.oneshotBlock}
	in := &instance{points: regionPoints(fwd), chunk: 1, close: func() {}}
	if prod {
		cfg.Trace = wavefront.NewTraceRecorder(procs)
		cfg.Metrics = wavefront.NewMetrics(procs)
		cfg.Postmortem = wavefront.NewFlightRecorder("") // memory-only
		cfg.Pool = wavefront.NewBufferPool(procs)
		cfg.Checkpoint = &wavefront.Checkpoint{Every: 2, Store: wavefront.NewCheckpointMemStore()}
		cfg.Transport = wavefront.TransportConfig{Kind: wavefront.TransportUnix,
			Addr: filepath.Join(e.workDir, fmt.Sprintf("wf-%d.sock", os.Getpid()))}
	}
	if e.traced && cfg.Trace == nil {
		cfg.Trace = wavefront.NewTraceRecorder(procs)
		cfg.Metrics = wavefront.NewMetrics(procs)
	}
	in.trace, in.metrics = cfg.Trace, cfg.Metrics
	in.ladder = oneshotLadder(fwd, t.Env, cfg)

	snap := takeSnapshot(t.Env, forwardArrays...)
	in.restore = snap.restore
	in.serialNs, err = timeSerial(t.Env, snap.restore, fwd)
	if err != nil {
		return nil, err
	}
	o.forward()
	if in.outputs, err = expect(t.Env, o.arrays(), forwardArrays...); err != nil {
		return nil, err
	}
	in.verify = func() error { return check(in.outputs) }
	in.run = func(rec *recorder) error {
		cfg.Trace.Reset() // the recorder is reused; nil-safe
		rec.begin()
		st, err := wavefront.RunPipelined(fwd, t.Env, cfg)
		rec.end()
		if err != nil {
			return err
		}
		in.last = runStats{elapsed: st.Elapsed, messages: st.Comm.Messages,
			elements: st.Comm.Elements, summary: st.Summary, drift: st.Drift, pool: st.Pool}
		return nil
	}
	return in, nil
}

// setupSteadySession builds steady_session: one op is a whole Tomcatv
// iteration plus the residual reduction inside a warm two-rank session.
func setupSteadySession(e env) (*instance, error) {
	t, o, err := newTomcatv(e.sz.bigN, e.seed)
	if err != nil {
		return nil, err
	}
	blocks := t.Blocks()
	chunk := e.sz.chunkSession
	cfg := wavefront.SessionConfig{Procs: procs, Domain: t.All, Block: e.sz.bigBlock,
		Pool: wavefront.NewBufferPool(procs)}
	in := &instance{points: regionPoints(blocks...), chunk: chunk, close: func() {}}
	if e.traced {
		cfg.Trace = wavefront.NewTraceRecorder(procs)
		cfg.Metrics = wavefront.NewMetrics(procs)
		in.trace, in.metrics = cfg.Trace, cfg.Metrics
	}
	sess, err := wavefront.NewSession(t.Env, blocks, cfg)
	if err != nil {
		return nil, err
	}
	in.close = func() { sess.Close() }

	snap := takeSnapshot(t.Env, workload.TomcatvArrays...)
	in.restore = snap.restore
	if in.serialNs, err = timeSerial(t.Env, snap.restore, blocks...); err != nil {
		return nil, err
	}
	for i := 0; i < chunk; i++ {
		o.iteration()
	}
	wantResid := o.residualMax()
	if in.outputs, err = expect(t.Env, o.arrays(), workload.TomcatvArrays...); err != nil {
		return nil, err
	}
	resid := wavefront.Max(
		expr.Call{Fn: expr.Abs, Args: []expr.Node{wavefront.Ref("rx")}},
		expr.Call{Fn: expr.Abs, Args: []expr.Node{wavefront.Ref("ry")}})
	var gotResid float64
	in.verify = func() error {
		if math.Float64bits(gotResid) != math.Float64bits(wantResid) {
			return fmt.Errorf("verify: residual %x, oracle says %x", math.Float64bits(gotResid), math.Float64bits(wantResid))
		}
		return check(in.outputs)
	}
	in.run = func(rec *recorder) error {
		cfg.Trace.Reset()
		err := sess.Run(func(r *wavefront.Rank) error {
			// Each iteration is timed at rank 0 from a barrier to the end of
			// the reduction (an all-reduce, so both ranks have finished).
			// Before it, rank 0 reads the host-speed reference while the
			// other rank waits, parked, at a barrier of its own.
			for it := 0; it < chunk; it++ {
				if err := r.Barrier(); err != nil {
					return err
				}
				if r.ID() == 0 {
					rec.calibrate()
				}
				if err := r.Barrier(); err != nil {
					return err
				}
				if r.ID() == 0 {
					rec.start()
				}
				for _, b := range blocks {
					if err := r.Exec(b); err != nil {
						return err
					}
				}
				v, err := r.Reduce(wavefront.MaxReduce, t.Interior, resid)
				if err != nil {
					return err
				}
				if r.ID() == 0 {
					rec.end()
					gotResid = v
				}
			}
			return nil
		})
		in.last = sessionStats(sess)
		return err
	}
	return in, nil
}

func sessionStats(sess *wavefront.Session) runStats {
	st := sess.Stats()
	return runStats{elapsed: st.Elapsed, messages: st.Comm.Messages,
		elements: st.Comm.Elements, summary: st.Summary, drift: st.Drift, pool: st.Pool}
}

// wavePair is the state the two wavefront-only workloads share: the Tomcatv
// forward and backward blocks at the big size, and the oracle run chunk
// times over them.
func wavePair(e env, chunk int) (t *workload.Tomcatv, fwd, bwd *wavefront.Block, in *instance, err error) {
	t, o, err := newTomcatv(e.sz.bigN, e.seed)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	fwd, bwd = t.ForwardBlock(), t.BackwardBlock()
	in = &instance{points: regionPoints(fwd, bwd), chunk: chunk, close: func() {}}
	in.restore = takeSnapshot(t.Env, forwardArrays...).restore
	for i := 0; i < chunk; i++ {
		o.forward()
		o.backward()
	}
	if in.outputs, err = expect(t.Env, o.arrays(), forwardArrays...); err != nil {
		return nil, nil, nil, nil, err
	}
	in.verify = func() error { return check(in.outputs) }
	return t, fwd, bwd, in, nil
}

// dagWorkers is the task-DAG pool size of taskdag_tiles.
const dagWorkers = 2

// setupTaskDAG builds taskdag_tiles: forward + backward wavefront blocks in
// a warm one-rank session whose tiles run on a work-stealing pool of the
// given size.
func setupTaskDAG(e env, workers int) (*instance, error) {
	chunk := e.sz.chunkDAG
	t, fwd, bwd, in, err := wavePair(e, chunk)
	if err != nil {
		return nil, err
	}
	if in.serialNs, err = timeSerial(t.Env, in.restore, fwd, bwd); err != nil {
		return nil, err
	}
	cfg := wavefront.SessionConfig{Procs: 1, Domain: t.All, Block: e.sz.bigBlock,
		Scheduler: wavefront.SchedTaskDAG, Workers: workers}
	if e.traced {
		cfg.Trace = wavefront.NewTraceRecorder(1 + workers) // rank ring + worker rings
		cfg.Metrics = wavefront.NewMetrics(1)
		in.trace, in.metrics = cfg.Trace, cfg.Metrics
	}
	sess, err := wavefront.NewSession(t.Env, []*wavefront.Block{fwd, bwd}, cfg)
	if err != nil {
		return nil, err
	}
	in.close = func() { sess.Close() }
	in.run = func(rec *recorder) error {
		cfg.Trace.Reset()
		err := sess.Run(func(r *wavefront.Rank) error {
			for it := 0; it < chunk; it++ {
				rec.begin()
				if err := r.Exec(fwd); err != nil {
					return err
				}
				if err := r.Exec(bwd); err != nil {
					return err
				}
				rec.end()
			}
			return nil
		})
		in.last = sessionStats(sess)
		return err
	}
	return in, nil
}

// requirePath runs block once with a probe registry and fails unless the
// named executor path fired: a silent fallback must abort the workload, not
// measure the wrong kernel.
func requirePath(b *wavefront.Block, env *wavefront.Env, counter string) error {
	reg := metrics.New(1)
	if err := scan.Exec(b, env, scan.ExecOptions{Metrics: reg}); err != nil {
		return err
	}
	snap := reg.Snapshot()
	if snap.Counters[counter].Total == 0 {
		return fmt.Errorf("kernel did not take the asserted path %s (paths: span=%d skewed=%d scalar=%d closure=%d)",
			counter, snap.Counters[metrics.KernelPathSpan].Total, snap.Counters[metrics.KernelPathSkewed].Total,
			snap.Counters[metrics.KernelPathScalar].Total, snap.Counters[metrics.KernelPathClosure].Total)
	}
	return nil
}

// execSerial is one serial block execution: wavefront.Exec on the timed
// pass, the same executor with the observers attached on a traced one.
func (in *instance) execSerial(b *wavefront.Block, env *wavefront.Env) error {
	if in.trace == nil {
		return wavefront.Exec(b, env)
	}
	return scan.Exec(b, env, scan.ExecOptions{Trace: in.trace, Metrics: in.metrics})
}

// observeSerial attaches the observers of a serial traced instance.
func (in *instance) observeSerial(e env) {
	if e.traced {
		in.trace = wavefront.NewTraceRecorder(1)
		in.metrics = wavefront.NewMetrics(1)
	}
}

// setupKernelSpan builds kernel_span: serial forward then backward block on
// the unit-stride span path.
func setupKernelSpan(e env) (*instance, error) {
	chunk := e.sz.chunkSpan
	t, fwd, bwd, in, err := wavePair(e, chunk)
	if err != nil {
		return nil, err
	}
	in.observeSerial(e)
	in.ladder = serialLadder(t.Env, fwd, bwd)
	for _, b := range []*wavefront.Block{fwd, bwd} {
		if err := requirePath(b, t.Env, metrics.KernelPathSpan); err != nil {
			return nil, fmt.Errorf("kernel_span: %w", err)
		}
	}
	in.run = func(rec *recorder) error {
		in.trace.Reset()
		for it := 0; it < chunk; it++ {
			rec.begin()
			if err := in.execSerial(fwd, t.Env); err != nil {
				return err
			}
			if err := in.execSerial(bwd, t.Env); err != nil {
				return err
			}
			rec.end()
		}
		return nil
	}
	return in, nil
}

// setupKernelSkewed builds kernel_skewed: one Sweep3D octant (rank 3) then
// one Smith-Waterman fill (three fused statements), both on the skewed
// hyperplane path.
func setupKernelSkewed(e env) (*instance, error) {
	s, err := newSweep(e.sz.sweepN, e.seed)
	if err != nil {
		return nil, err
	}
	octant := s.OctantBlock(s.Octants()[0])
	w, err := workload.NewSW(e.sz.swN, e.seed, field.RowMajor)
	if err != nil {
		return nil, err
	}
	fill := w.Block()
	in := &instance{points: regionPoints(octant, fill), chunk: 1, close: func() {}}
	in.observeSerial(e)
	in.ladder = append(serialLadder(s.Env, octant), serialLadder(w.Env, fill)...)

	sweepSnap := takeSnapshot(s.Env, "flux")
	swSnap := takeSnapshot(w.Env, "s", "e", "f")
	in.restore = func() { sweepSnap.restore(); swSnap.restore() }

	wantFlux := append([]float64(nil), s.Env.Arrays["flux"].Data()...)
	sweepOctantOracle(s.N, wantFlux, s.Env.Arrays["src"].Data(), s.Mu, s.Eta, s.Xi, s.Sigma)
	want := map[string][]float64{"flux": wantFlux}
	for name, f := range w.Reference() {
		want[name] = f.Data()
	}
	if in.outputs, err = expect(s.Env, want, "flux"); err != nil {
		return nil, err
	}
	swOut, err := expect(w.Env, want, "s", "e", "f")
	if err != nil {
		return nil, err
	}
	in.outputs = append(in.outputs, swOut...)
	in.verify = func() error { return check(in.outputs) }

	if err := requirePath(octant, s.Env, metrics.KernelPathSkewed); err != nil {
		return nil, fmt.Errorf("kernel_skewed: sweep octant: %w", err)
	}
	if err := requirePath(fill, w.Env, metrics.KernelPathSkewed); err != nil {
		return nil, fmt.Errorf("kernel_skewed: sw fill: %w", err)
	}
	in.run = func(rec *recorder) error {
		in.trace.Reset()
		rec.begin()
		if err := in.execSerial(octant, s.Env); err != nil {
			return err
		}
		if err := in.execSerial(fill, w.Env); err != nil {
			return err
		}
		rec.end()
		return nil
	}
	return in, nil
}

// zplPrograms are the testdata programs one zpl_programs pass runs.
var zplPrograms = []string{"fig3", "heat", "multioct", "sw", "sweep", "tomcatv", "lu"}

// zplParallelPrograms have static regions, which parallel mode requires.
var zplParallelPrograms = zplPrograms[:6]

// zplSource is one program with its pinned output.
type zplSource struct {
	name, src string
	golden    []byte
}

func loadZPL(repoRoot string, names []string) ([]zplSource, error) {
	var out []zplSource
	for _, name := range names {
		src, err := os.ReadFile(filepath.Join(repoRoot, "testdata", name+".zpl"))
		if err != nil {
			return nil, err
		}
		golden, err := os.ReadFile(filepath.Join(repoRoot, "testdata", "golden", name+".out"))
		if err != nil {
			return nil, err
		}
		out = append(out, zplSource{name: name, src: string(src), golden: golden})
	}
	return out, nil
}

// setupZPL builds zpl_programs: one op runs the seven testdata programs
// through wavefront.RunZPL and compares each output byte for byte with its
// golden file. The programs are the input and they are fixed, so the seed
// changes nothing here: shuffling their order with it moved the median by
// 17% between seeds (the garbage one program leaves decides when the next
// one's GC cycle falls), which is an input effect, not noise.
func setupZPL(e env) (*instance, error) {
	progs, err := loadZPL(e.repoRoot, zplPrograms)
	if err != nil {
		return nil, err
	}
	in := &instance{chunk: 1, close: func() {}, ladder: zplLadder(progs)}
	in.observeSerial(e)
	// The output buffers are the driver's: sized once so a pass's allocation
	// counts are the program's own.
	outs := make([]*bytes.Buffer, len(progs))
	for i, p := range progs {
		outs[i] = bytes.NewBuffer(make([]byte, 0, 2*len(p.golden)+1024))
		it, err := wavefront.RunZPL(p.src, nil)
		if err != nil {
			return nil, fmt.Errorf("zpl_programs: %s: %w", p.name, err)
		}
		// A point of this workload is one element of a declared array.
		for _, f := range it.Env().Arrays {
			in.points += float64(f.Len())
		}
	}
	in.restore = func() {
		for _, b := range outs {
			b.Reset()
		}
	}
	in.verify = func() error {
		for i, p := range progs {
			if !bytes.Equal(outs[i].Bytes(), p.golden) {
				return fmt.Errorf("verify: output of %s.zpl differs from testdata/golden/%s.out", p.name, p.name)
			}
		}
		return nil
	}
	in.corrupt = func() { outs[0].Bytes()[0] ^= 1 }
	in.run = func(rec *recorder) error {
		in.trace.Reset()
		rec.begin()
		for i, p := range progs {
			var err error
			if in.trace == nil {
				_, err = wavefront.RunZPL(p.src, outs[i])
			} else {
				_, err = zpl.RunSource(p.src, zpl.Options{Out: outs[i],
					Exec: scan.ExecOptions{Trace: in.trace, Metrics: in.metrics}})
			}
			if err != nil {
				return fmt.Errorf("%s: %w", p.name, err)
			}
		}
		rec.end()
		return nil
	}
	return in, nil
}
