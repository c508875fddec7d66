package scan

import (
	"fmt"
	"math"

	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/taskdag"
	"wavefront/internal/trace"
)

// Prepared is a block made ready to run: everything Exec derives before its
// loop nest — the references, each loop nest's analysis and its
// temporary-or-in-place verdict, the kernels with engine, trace and metrics
// bound, the compiled right-hand side of a statement that goes through a
// temporary — with the covering region and the scalars' values left as
// run-time arguments. The analysis depends only on the statements and the
// region's rank, so nothing invalidates it; Run re-validates bounds when
// the region differs from the last one that passed, and compiles the
// kernels again when a scalar they captured has changed value. Arrays are
// bound when the block is prepared, as a Kernel binds them.
//
// The caller holds the handle for as long as it runs the block; nothing is
// cached behind it. Under SchedTaskDAG the first Run starts a worker pool
// and builds each nest's tile graph with one kernel per worker; later Runs
// reuse them, re-cutting a graph when the region changes. Close stops the
// pool's goroutines (a later Run starts them again); a Prepared dropped
// without Close has them stopped by the garbage collector. Under
// SchedStatic there is no pool and Close does nothing. It is not safe for
// concurrent use.
type Prepared struct {
	stmts []Stmt
	refs  stmtRefs
	env   expr.Env
	opt   ExecOptions
	// region is the last region that passed check; checked says there is one.
	region  grid.Region
	checked bool
	// scalars are the values the kernels were compiled with; bound says
	// they were, for every part.
	scalars Captured
	bound   bool
	// parts are the block's loop nests: the whole of a scan block, each
	// statement of a plain one. one backs the single-nest case.
	parts []part
	one   [1]part
	// pool runs every part's task graph; nil until the first Run under
	// SchedTaskDAG.
	pool *taskdag.Pool
	// builds counts kernel compilations, for the tests.
	builds int
}

// part is one loop nest of a prepared block.
type part struct {
	p    *Prepared
	blk  Block // the nest's statements; of its Region only the rank is read
	refs stmtRefs
	an   *Analysis
	// temp routes a plain statement through a temporary: rhs is its
	// compiled right-hand side, dst its destination, tmp the temporary of
	// the last region it ran over.
	temp bool
	rhs  expr.Compiled
	dst  *field.Field
	tmp  *field.Field
	// An in-place nest runs on kern under the static schedule and on dag
	// under the task DAG: its tile graph with one kernel per pool worker (a
	// tape owns scratch registers, so workers cannot share one), built by
	// the first Run and re-cut for a new region.
	kern Kernel
	dag  *TaskGraph
}

// Captured is the scalars a compilation read from its environment — a tape
// holds them as immediates, a closure as captured values — and the values
// it last saw.
type Captured struct {
	names []string
	vals  []float64
}

// Capture watches the named scalars; the first Changed records their values.
func Capture(names []string) Captured { return Captured{names: names} }

// Changed reports whether a scalar's value differs bit for bit from the one
// recorded (or none was recorded yet), and records the current values.
func (c *Captured) Changed(env expr.Env) bool {
	changed := c.vals == nil
	if changed {
		c.vals = make([]float64, len(c.names))
	}
	for i, name := range c.names {
		// An unbound scalar always counts as changed: the expression is
		// compiled again, and the compile reports it.
		v, ok := env.Scalar(name)
		if !ok || math.Float64bits(v) != math.Float64bits(c.vals[i]) {
			changed = true
		}
		c.vals[i] = v
	}
	return changed
}

// Prepare checks b against env — bounds over b.Region, then legality — and
// compiles it, refusing what Exec refuses with Exec's errors. The result
// runs over b.Region or any other region of its rank.
func Prepare(b *Block, env expr.Env, opt ExecOptions) (*Prepared, error) {
	p := &Prepared{stmts: b.Stmts, refs: refsOf(b.Stmts), env: env, opt: opt}
	if err := checkBounds(p.stmts, p.refs, b.Region, env); err != nil {
		return nil, err
	}
	p.region, p.checked = b.Region, true
	switch b.Kind {
	case ScanKind:
		p.parts = p.one[:]
		p.parts[0] = part{p: p, blk: *b, refs: p.refs}
	case PlainKind:
		p.parts = p.one[:]
		if len(b.Stmts) != 1 {
			p.parts = make([]part, len(b.Stmts))
		}
		for i := range p.parts {
			p.parts[i] = part{p: p, refs: p.refs.slice(i, i+1),
				blk: Block{Kind: PlainKind, Region: b.Region, Stmts: b.Stmts[i : i+1]}}
		}
	default:
		return nil, fmt.Errorf("scan: unknown block kind %v", b.Kind)
	}
	for i := range p.parts {
		pt := &p.parts[i]
		an, err := analyze(&pt.blk, pt.refs, preferLow)
		if err != nil {
			return nil, err
		}
		pt.an = an
		pt.temp = b.Kind == PlainKind && (an.NeedsTemp() || opt.ForceTemp)
	}
	p.scalars = Capture(p.refs.scalars)
	p.scalars.Changed(env)
	if err := p.bind(); err != nil {
		return nil, err
	}
	return p, nil
}

// bind compiles every part against the environment's present scalars.
func (p *Prepared) bind() error {
	p.bound = false
	for i := range p.parts {
		pt := &p.parts[i]
		switch {
		case pt.temp:
			s := pt.blk.Stmts[0]
			rhs, err := expr.Compile(s.RHS, p.env)
			if err != nil {
				return err
			}
			pt.rhs, pt.dst = rhs, p.env.Array(s.LHS.Name)
		case p.opt.Scheduler == SchedTaskDAG:
			if pt.dag != nil {
				pt.dag.Close()
				pt.dag = nil
			}
		default:
			pt.kern = Kernel{}
			if err := pt.build(&pt.kern); err != nil {
				return err
			}
			pt.kern.Instrument(p.opt.Trace, p.opt.TraceRank)
		}
	}
	p.bound = true
	return nil
}

// build compiles the nest into the zero Kernel k under the block's options.
func (pt *part) build(k *Kernel) error {
	p := pt.p
	if err := k.init(&pt.blk, p.env, pt.an.UDVs, true, p.opt.Engine); err != nil {
		return err
	}
	p.builds++
	k.SetMetrics(p.opt.Metrics, p.opt.MetricsRank)
	return nil
}

// runDAG runs the nest over region on its task graph: built on the
// Prepared's pool by the first Run (and after a scalar change), re-cut when
// the region is not the last one's.
func (pt *part) runDAG(region grid.Region) error {
	p := pt.p
	regions := [1]grid.Region{region}
	if pt.dag == nil {
		if p.pool == nil {
			p.pool = taskdag.NewPool(p.opt.Workers)
		}
		dag, err := newTaskGraph([]*part{pt}, regions[:], p.pool)
		if err != nil {
			return err
		}
		pt.dag = dag
	} else if err := pt.dag.Recut(regions[:]); err != nil {
		return err
	}
	pt.dag.runSpan(&p.opt, region.Size()*len(pt.blk.Stmts))
	return nil
}

// Close stops the task-DAG workers the Runs started; the graphs and kernels
// stay, and a later Run starts the workers again. Under SchedStatic it does
// nothing.
func (p *Prepared) Close() {
	if p.pool != nil {
		p.pool.Stop()
	}
}

// Run executes the block over region. The region is validated when it
// differs from the last one that passed, and a refusal — Exec's, word for
// word — leaves nothing cached: the next legal region runs.
func (p *Prepared) Run(region grid.Region) error {
	if !p.checked || !p.region.Equal(region) {
		p.checked = false
		if err := checkBounds(p.stmts, p.refs, region, p.env); err != nil {
			return err
		}
		p.region, p.checked = region, true
	}
	if p.scalars.Changed(p.env) || !p.bound {
		if err := p.bind(); err != nil {
			return err
		}
	}
	for i := range p.parts {
		pt := &p.parts[i]
		switch {
		case pt.temp:
			if err := pt.runViaTemp(region); err != nil {
				return err
			}
		case p.opt.Scheduler == SchedTaskDAG:
			if err := pt.runDAG(region); err != nil {
				return err
			}
		default:
			pt.kern.Run(region, pt.an.Loop)
		}
	}
	return nil
}

// runViaTemp evaluates the statement's right-hand side into a temporary
// over the region and then assigns, implementing the pure array semantics
// directly.
func (pt *part) runViaTemp(region grid.Region) error {
	opt := &pt.p.opt
	var t0 int64
	if opt.Trace != nil {
		t0 = opt.Trace.Now()
	}
	if pt.tmp == nil || !pt.tmp.Bounds().Equal(region) {
		tmp, err := field.New("tmp$"+pt.dst.Name(), region, pt.dst.Layout())
		if err != nil {
			return err
		}
		pt.tmp = tmp
	}
	tmp, dst, rhs := pt.tmp, pt.dst, pt.rhs
	region.Each(nil, func(p grid.Point) {
		tmp.Set(p, rhs(p))
	})
	region.Each(nil, func(p grid.Point) {
		dst.Set(p, tmp.At(p))
	})
	if opt.Trace != nil {
		ev := trace.Ev(trace.KindKernel, opt.TraceRank, t0, opt.Trace.Now())
		ev.Elems = region.Size()
		opt.Trace.Record(ev)
	}
	return nil
}
