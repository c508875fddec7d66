package zpl

import (
	"io"
	"maps"

	"wavefront/internal/grid"
	"wavefront/internal/pipeline"
	"wavefront/internal/scan"
)

// RunParallel executes the program's statements across procs ranks through
// a pipeline.Session: every array statement runs on its owner ranks,
// wavefront scan blocks pipeline through the ranks with tile width
// blockWidth, reductions combine across ranks, and arrays gather back into
// the interpreter's environment at the end — the ZPL compilation story of
// the paper, end to end.
//
// Restrictions of the parallel mode:
//   - region prefixes must be static: they may reference constants but not
//     scalar variables (a region that changes per loop iteration has no
//     fixed decomposition);
//   - so must inline @[…] shifts be, for the same reason;
//   - writeln may print strings and scalars, not arrays (arrays gather
//     only at the end of the run).
//
// Scalar statements and loop bounds evaluate identically on every rank
// (SPMD). An array statement reads its scalars' present values, as
// serially: a rank lowers a block again when a scalar it reads changes.
func (it *Interp) RunParallel(prog *Program, procs, blockWidth int) error {
	it.handles = make([]handle, prog.slots)
	for _, d := range prog.Decls {
		if err := it.declare(d); err != nil {
			return err
		}
	}
	// Statements after the last array work (typically trailing writelns of
	// results) run serially after the gather, so printing arrays there is
	// fine.
	split := len(prog.Stmts)
	for split > 0 && !containsArrayWork(prog.Stmts[split-1], it) {
		split--
	}
	mainStmts, tailStmts := prog.Stmts[:split], prog.Stmts[split:]

	col := &collector{it: it, blocks: map[Stmt]*scan.Block{}}
	for _, s := range mainStmts {
		if err := col.walk(s, nil); err != nil {
			return err
		}
	}
	if len(col.ordered) == 0 {
		// Nothing parallel to do; run serially.
		return it.execAll(it, prog.Stmts, nil)
	}
	domain := col.ordered[0].Region
	for _, b := range col.ordered[1:] {
		var err error
		domain, err = domain.BoundingBox(b.Region)
		if err != nil {
			return err
		}
	}
	sess, err := pipeline.NewSession(it.env, col.ordered, pipeline.SessionConfig{
		Procs:  procs,
		Domain: domain,
		Block:  blockWidth,
		Trace:  it.opts.Exec.Trace,
	})
	if err != nil {
		return err
	}
	defer sess.Close()
	finalScalars := map[string]float64{}
	err = sess.Run(func(r *pipeline.Rank) error {
		// Every rank runs the program on an interpreter of its own: the
		// declarations are shared and read-only for the length of the run,
		// the set of scalar variables — which loops extend — is a copy.
		rit := *it
		rit.scalarVars = maps.Clone(it.scalarVars)
		if err := rit.execAll(&rankMachine{it: &rit, r: r, blocks: col.blocks}, mainStmts, nil); err != nil {
			return err
		}
		if r.ID() == 0 {
			for name, isVar := range it.scalarVars {
				if isVar {
					finalScalars[name], _ = r.GetScalar(name)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for name, v := range finalScalars {
		it.env.Scalars[name] = v
	}
	// Trailing output statements run serially against the gathered state.
	return it.execAll(it, tailStmts, nil)
}

// containsArrayWork reports whether the statement (or any sub-statement)
// writes an array or performs a reduction.
func containsArrayWork(s Stmt, it *Interp) bool {
	switch t := s.(type) {
	case *ScanStmt:
		return true
	case *AssignStmt:
		return t.Reduce != "" || it.env.Arrays[t.Name] != nil
	}
	found := false
	eachChild(s, func(sub Stmt) error {
		found = found || containsArrayWork(sub, it)
		return nil
	})
	return found
}

// RunParallelSource parses and executes src in parallel mode.
func RunParallelSource(src string, opts Options, procs, blockWidth int) (*Interp, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	it := New(opts)
	return it, it.RunParallel(prog, procs, blockWidth)
}

// collector pre-walks the program, lowering every array statement and scan
// block under its (static) covering region, in first-execution order.
type collector struct {
	it      *Interp
	blocks  map[Stmt]*scan.Block
	ordered []*scan.Block
}

// staticRegion resolves a region prefix, rejecting references to scalar
// variables (loop variables included).
func (c *collector) staticRegion(t *RegionStmt) (grid.Region, error) {
	if _, ok := c.it.regions[t.Name]; !ok && c.it.scalarVars[t.Name] {
		return grid.Region{}, errf(t.Pos, "parallel mode: region %q is a scalar; regions must be static", t.Name)
	}
	for _, rg := range t.Ranges {
		for _, e := range []Expr{rg.Lo, rg.Hi} {
			var bad error
			eachName(e, func(v *NameRef) {
				if c.it.scalarVars[v.Name] {
					bad = errf(v.Pos, "parallel mode: region bound references scalar %q; regions must be static", v.Name)
				}
			})
			if bad != nil {
				return grid.Region{}, bad
			}
		}
	}
	return c.it.resolveRegion(t)
}

// static refuses a lowering that evaluated a scalar variable on the spot:
// the ranks' blocks are lowered once, before the run, and a rank's scalars
// live in its overlay, where the lowering does not look.
func (h *handle) static(pos Pos) error {
	if len(h.inlined) > 0 {
		return errf(pos, "parallel mode: @[…] shift references scalar %q; shifts must be static", h.inlined[0])
	}
	return nil
}

// collect lowers one array assignment or scan block and registers it.
func (c *collector) collect(s Stmt, pos Pos, region *grid.Region) error {
	if region == nil {
		return nil
	}
	var h handle
	blk, err := c.it.lowerBlock(s, *region, &h)
	if err == errScanBody {
		return errf(pos, "scan blocks may contain only array assignments covered by the block's region")
	}
	if err != nil {
		return err
	}
	if err := h.static(pos); err != nil {
		return err
	}
	c.blocks[s] = blk
	c.ordered = append(c.ordered, blk)
	return nil
}

// walk registers the array code under s. What exec will refuse when the
// ranks reach it — array code without a covering region, a bad assignment
// target — is left for exec to word.
func (c *collector) walk(s Stmt, region *grid.Region) error {
	switch t := s.(type) {
	case *RegionStmt:
		reg, err := c.staticRegion(t)
		if err != nil {
			return err
		}
		region = &reg
	case *ForStmt:
		// Loop bodies execute repeatedly over the same static regions;
		// collect once, the loop variable a scalar without a value.
		defer c.it.leaveLoop(t.Var, c.it.enterLoop(t.Var))
	case *ScanStmt:
		return c.collect(s, t.Pos, region)
	case *AssignStmt:
		if t.Reduce == "" && c.it.env.Arrays[t.Name] != nil {
			return c.collect(s, t.Pos, region)
		}
	case *WritelnStmt:
		for _, a := range t.Args {
			if f := c.it.printedArray(a); f != nil {
				return errf(t.Pos, "parallel mode: writeln cannot print array %q mid-run (arrays gather at the end)", f.Name())
			}
		}
	}
	return eachChild(s, func(sub Stmt) error { return c.walk(sub, region) })
}

// rankMachine runs the program's statements on one rank of the session: the
// SPMD half of exec. it is the rank's own interpreter (see RunParallel).
type rankMachine struct {
	it     *Interp
	r      *pipeline.Rank
	blocks map[Stmt]*scan.Block
}

func (m *rankMachine) scalar(name string) (float64, bool) { return m.r.GetScalar(name) }

func (m *rankMachine) setScalar(name string, v float64) { m.r.SetScalar(name, v) }

// enterLoop scopes the name as the interpreter does; the value lives in the
// rank's overlay, which cannot forget one, so a loop variable's last value
// stays behind under a name nothing can read.
func (m *rankMachine) enterLoop(name string) loopScope {
	sc := loopScope{wasVar: m.it.scalarVars[name]}
	sc.saved, sc.had = m.r.GetScalar(name)
	m.it.scalarVars[name] = true
	return sc
}

func (m *rankMachine) leaveLoop(name string, sc loopScope) {
	m.it.scalarVars[name] = sc.wasVar
	if sc.had && sc.wasVar {
		m.r.SetScalar(name, sc.saved)
	}
}

// block runs the block the collector registered for s.
func (m *rankMachine) block(s Stmt, _ int, _ Pos, _ grid.Region) error {
	return m.r.Exec(m.blocks[s])
}

func (m *rankMachine) fold(t *AssignStmt, op scan.ReduceOp, region grid.Region) (float64, error) {
	var h handle
	node, err := m.it.lowerExpr(t.RHS, region.Rank(), &h)
	if err == nil {
		err = h.static(t.Pos)
	}
	if err != nil {
		return 0, err
	}
	v, err := m.r.Reduce(op, region, node)
	if err != nil {
		return 0, errf(t.Pos, "%v", err)
	}
	return v, nil
}

// out is rank 0's: a line prints once, not once per rank.
func (m *rankMachine) out() io.Writer {
	if m.r.ID() != 0 {
		return nil
	}
	return m.it.opts.Out
}
