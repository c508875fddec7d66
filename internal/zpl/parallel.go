package zpl

import (
	"fmt"

	"wavefront/internal/field"
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
//   - writeln may print strings and scalars, not arrays (arrays gather
//     only at the end of the run);
//   - a scalar read by an array statement must not change afterwards
//     (compiled kernels capture scalar values).
//
// Scalar statements and loop bounds evaluate identically on every rank
// (SPMD).
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

	col := &collector{it: it, blocks: map[Stmt]*scan.Block{}, regions: map[Stmt]grid.Region{}, loopVars: map[string]bool{}}
	for _, s := range mainStmts {
		if err := col.walk(s, nil); err != nil {
			return err
		}
	}
	if len(col.ordered) == 0 {
		// Nothing parallel to do; run serially.
		for _, s := range prog.Stmts {
			if err := it.exec(s, nil); err != nil {
				return err
			}
		}
		return nil
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
		Trace:  it.opts.Trace,
	})
	if err != nil {
		return err
	}
	finalScalars := map[string]float64{}
	err = sess.Run(func(r *pipeline.Rank) error {
		ex := &rankExec{it: it, col: col, r: r}
		for _, s := range mainStmts {
			if err := ex.exec(s, nil); err != nil {
				return err
			}
		}
		if r.ID() == 0 {
			for name := range it.scalarVars {
				if v, ok := r.GetScalar(name); ok {
					finalScalars[name] = v
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for name, v := range finalScalars {
		if !col.loopVars[name] {
			it.env.Scalars[name] = v
		}
	}
	for name := range col.loopVars {
		delete(it.scalarVars, name)
		delete(it.env.Scalars, name)
	}
	// Trailing output statements run serially against the gathered state.
	for _, s := range tailStmts {
		if err := it.exec(s, nil); err != nil {
			return err
		}
	}
	return nil
}

// containsArrayWork reports whether the statement (or any sub-statement)
// writes an array or performs a reduction.
func containsArrayWork(s Stmt, it *Interp) bool {
	switch t := s.(type) {
	case *RegionStmt:
		return containsArrayWork(t.Body, it)
	case *BeginStmt:
		for _, sub := range t.Body {
			if containsArrayWork(sub, it) {
				return true
			}
		}
	case *ForStmt:
		for _, sub := range t.Body {
			if containsArrayWork(sub, it) {
				return true
			}
		}
	case *IfStmt:
		for _, sub := range t.Then {
			if containsArrayWork(sub, it) {
				return true
			}
		}
		for _, sub := range t.Else {
			if containsArrayWork(sub, it) {
				return true
			}
		}
	case *RepeatStmt:
		for _, sub := range t.Body {
			if containsArrayWork(sub, it) {
				return true
			}
		}
	case *ScanStmt:
		return true
	case *AssignStmt:
		return t.Reduce != "" || it.env.Arrays[t.Name] != nil
	}
	return false
}

// RunParallelSource parses and executes src in parallel mode.
func RunParallelSource(src string, opts Options, procs, blockWidth int) (*Interp, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	it := New(opts)
	if err := it.RunParallel(prog, procs, blockWidth); err != nil {
		return it, err
	}
	return it, nil
}

// collector pre-walks the program, lowering every array statement and scan
// block under its (static) covering region, in first-execution order.
type collector struct {
	it      *Interp
	blocks  map[Stmt]*scan.Block
	regions map[Stmt]grid.Region // covering regions of reductions
	ordered []*scan.Block
	// loopVars are temporarily registered scalars, unregistered after the
	// run (serial execution scopes them to their loops).
	loopVars map[string]bool
}

// staticRegion resolves a region prefix, rejecting references to scalar
// variables (loop variables included).
func (c *collector) staticRegion(t *RegionStmt) (grid.Region, error) {
	check := func(e Expr) error {
		var bad error
		eachName(e, func(v *NameRef) {
			if c.it.scalarVars[v.Name] {
				bad = errf(v.Pos, "parallel mode: region bound references scalar %q; regions must be static", v.Name)
			}
		})
		return bad
	}
	if t.Name != "" {
		if _, ok := c.it.regions[t.Name]; !ok {
			if c.it.scalarVars[t.Name] {
				return grid.Region{}, errf(t.Pos, "parallel mode: region %q is a scalar; regions must be static", t.Name)
			}
		}
	}
	for _, rg := range t.Ranges {
		if err := check(rg.Lo); err != nil {
			return grid.Region{}, err
		}
		if rg.Hi != rg.Lo {
			if err := check(rg.Hi); err != nil {
				return grid.Region{}, err
			}
		}
	}
	return c.it.resolveRegion(t)
}

// collect lowers one array assignment or scan block and registers it.
func (c *collector) collect(s Stmt, pos Pos, region grid.Region) error {
	blk, err := c.it.lowerBlock(s, region, nil)
	if err == errScanBody {
		return errf(pos, "scan blocks may contain only array assignments covered by the block's region")
	}
	if err != nil {
		return err
	}
	c.blocks[s] = blk
	c.ordered = append(c.ordered, blk)
	return nil
}

func (c *collector) walk(s Stmt, region *grid.Region) error {
	switch t := s.(type) {
	case *RegionStmt:
		reg, err := c.staticRegion(t)
		if err != nil {
			return err
		}
		return c.walk(t.Body, &reg)
	case *BeginStmt:
		for _, sub := range t.Body {
			if err := c.walk(sub, region); err != nil {
				return err
			}
		}
		return nil
	case *ForStmt:
		// Loop bodies execute repeatedly over the same static regions;
		// collect once. The loop variable is registered as a scalar here,
		// before the ranks start, so that the shared symbol tables are
		// read-only during the SPMD run.
		if !c.it.scalarVars[t.Var] {
			c.it.scalarVars[t.Var] = true
			c.loopVars[t.Var] = true
		}
		for _, sub := range t.Body {
			if err := c.walk(sub, region); err != nil {
				return err
			}
		}
		return nil
	case *ScanStmt:
		if region == nil {
			return errf(t.Pos, "scan block needs a covering region")
		}
		return c.collect(s, t.Pos, *region)
	case *AssignStmt:
		if t.Reduce != "" {
			if region == nil {
				return errf(t.Pos, "reduction needs a covering region")
			}
			c.regions[s] = *region
			return nil
		}
		if c.it.env.Arrays[t.Name] == nil {
			return nil // scalar assignment
		}
		if region == nil {
			return errf(t.Pos, "array assignment to %q needs a covering region", t.Name)
		}
		return c.collect(s, t.Pos, *region)
	case *IfStmt:
		for _, sub := range t.Then {
			if err := c.walk(sub, region); err != nil {
				return err
			}
		}
		for _, sub := range t.Else {
			if err := c.walk(sub, region); err != nil {
				return err
			}
		}
		return nil
	case *RepeatStmt:
		for _, sub := range t.Body {
			if err := c.walk(sub, region); err != nil {
				return err
			}
		}
		return nil
	case *WritelnStmt:
		for _, a := range t.Args {
			if ref, ok := a.(*NameRef); ok && c.it.env.Arrays[ref.Name] != nil &&
				!ref.Primed && ref.ShiftName == "" && ref.ShiftComps == nil {
				return errf(t.Pos, "parallel mode: writeln cannot print array %q mid-run (arrays gather at the end)", ref.Name)
			}
		}
		return nil
	}
	return fmt.Errorf("zpl: unknown statement %T", s)
}

// rankExec is one rank's SPMD statement walker.
type rankExec struct {
	it  *Interp
	col *collector
	r   *pipeline.Rank
}

func (ex *rankExec) scalar(e Expr) (float64, error) {
	return ex.it.evalScalarIn(e, rankScalarEnv{ex.r})
}

func (ex *rankExec) intval(e Expr, pos Pos) (int, error) {
	v, err := ex.scalar(e)
	if err != nil {
		return 0, err
	}
	r := int(v + 0.5)
	if v < 0 {
		r = int(v - 0.5)
	}
	return r, nil
}

func (ex *rankExec) exec(s Stmt, region *grid.Region) error {
	switch t := s.(type) {
	case *RegionStmt:
		reg, err := ex.it.resolveRegion(t) // static: identical on every rank
		if err != nil {
			return err
		}
		return ex.exec(t.Body, &reg)
	case *BeginStmt:
		for _, sub := range t.Body {
			if err := ex.exec(sub, region); err != nil {
				return err
			}
		}
		return nil
	case *ForStmt:
		from, err := ex.intval(t.From, t.Pos)
		if err != nil {
			return err
		}
		to, err := ex.intval(t.To, t.Pos)
		if err != nil {
			return err
		}
		step := 1
		if t.Down {
			step = -1
		}
		for v := from; (step > 0 && v <= to) || (step < 0 && v >= to); v += step {
			if err := ex.r.SetScalar(t.Var, float64(v)); err != nil {
				return err
			}
			for _, sub := range t.Body {
				if err := ex.exec(sub, region); err != nil {
					return err
				}
			}
		}
		return nil
	case *ScanStmt:
		return ex.r.Exec(ex.col.blocks[s])
	case *AssignStmt:
		if t.Reduce != "" {
			reg := ex.col.regions[s]
			op, _ := reduceOp(t.Reduce)
			node, err := ex.it.lowerExpr(t.RHS, reg.Rank(), nil)
			if err != nil {
				return err
			}
			v, err := ex.r.Reduce(op, reg, node)
			if err != nil {
				return err
			}
			return ex.r.SetScalar(t.Name, v)
		}
		if blk, ok := ex.col.blocks[s]; ok {
			return ex.r.Exec(blk)
		}
		// Scalar assignment, evaluated identically on every rank.
		v, err := ex.scalar(t.RHS)
		if err != nil {
			return err
		}
		return ex.r.SetScalar(t.Name, v)
	case *IfStmt:
		v, err := ex.it.evalCondIn(t.Cond, rankScalarEnv{ex.r})
		if err != nil {
			return err
		}
		body := t.Then
		if !v {
			body = t.Else
		}
		for _, sub := range body {
			if err := ex.exec(sub, region); err != nil {
				return err
			}
		}
		return nil
	case *RepeatStmt:
		for {
			for _, sub := range t.Body {
				if err := ex.exec(sub, region); err != nil {
					return err
				}
			}
			v, err := ex.it.evalCondIn(t.Cond, rankScalarEnv{ex.r})
			if err != nil {
				return err
			}
			if v {
				return nil
			}
		}
	case *WritelnStmt:
		if ex.r.ID() != 0 || ex.it.opts.Out == nil {
			return nil
		}
		// The collector refused array arguments, so every one is a scalar.
		line, err := ex.it.appendLine(nil, t, rankScalarEnv{ex.r})
		if err != nil {
			return err
		}
		_, _ = ex.it.opts.Out.Write(line)
		return nil
	}
	return fmt.Errorf("zpl: unknown statement %T", s)
}

// rankScalarEnv adapts a Rank's scalar overlay to expr.Env for scalar-only
// expressions.
type rankScalarEnv struct{ r *pipeline.Rank }

func (e rankScalarEnv) Array(string) *field.Field { return nil }

func (e rankScalarEnv) Scalar(name string) (float64, bool) { return e.r.GetScalar(name) }
