package zpl

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
	"wavefront/internal/scan"
)

// Options configures an interpreter.
type Options struct {
	// Out receives writeln output; nil discards it.
	Out io.Writer
	// Layout selects array storage order; the paper's Fortran setting is
	// column-major.
	Layout field.Layout
	// Exec configures the underlying serial executors. Exec.Trace, when
	// non-nil, records the run — a parallel one (RunParallel) through the
	// session runtime.
	Exec scan.ExecOptions
}

// Interp holds a program's runtime state: declared constants, regions,
// directions, arrays, and scalar variables.
type Interp struct {
	opts    Options
	regions map[string]grid.Region
	dirs    map[string]grid.Direction
	// consts and scalar variables (including live loop variables) share the
	// scalar namespace, stored in env.Scalars.
	constNames map[string]bool
	scalarVars map[string]bool
	env        *expr.MapEnv
	regionOf   map[string]string // array name -> region name
	// handles holds what executing a statement prepared the first time it
	// ran, by the statement's slot in the program being run.
	handles []handle
	// line is writeln's scratch buffer.
	line []byte
}

// handle is one executable statement's prepared form, kept for the length
// of a run so a loop pays for lowering, analysis and compilation on its
// first trip only: the prepared block of an array statement or scan block,
// or the bound operand of a reduction.
type handle struct {
	prep *scan.Prepared
	fold *scan.Reducer
	// inlined are the scalar variables the lowering evaluated on the spot
	// — the components of an inline @[…] shift end up as constants of the
	// lowered tree — with the values it saw: the statement is lowered from
	// the AST again when one differs. A scalar that stays a name in the
	// tree is not listed; Prepared and Reducer capture those themselves
	// and compile again when one changes.
	inlined []string
	saw     []float64
	// builds counts how often the statement was lowered, for the tests.
	builds int
}

// stale reports whether the statement has to be lowered: it never was, or a
// scalar its lowering inlined has changed value.
func (h *handle) stale(it *Interp) bool {
	if h.prep == nil && h.fold == nil {
		return true
	}
	for i, name := range h.inlined {
		if v, ok := it.env.Scalars[name]; !ok || math.Float64bits(v) != math.Float64bits(h.saw[i]) {
			return true
		}
	}
	return false
}

// inline records the scalar variables e names, with their present values,
// as evaluated into the statement's lowered form.
func (h *handle) inline(it *Interp, e Expr) {
	eachName(e, func(ref *NameRef) {
		if it.scalarVars[ref.Name] {
			h.inlined = append(h.inlined, ref.Name)
			h.saw = append(h.saw, it.env.Scalars[ref.Name])
		}
	})
}

// eachName calls fn on every identifier of an expression.
func eachName(e Expr, fn func(*NameRef)) {
	switch t := e.(type) {
	case *NameRef:
		fn(t)
	case *UnaryExpr:
		eachName(t.X, fn)
	case *BinExpr:
		eachName(t.L, fn)
		eachName(t.R, fn)
	case *CallExpr:
		for _, a := range t.Args {
			eachName(a, fn)
		}
	}
}

// errScanBody marks a scan block whose body holds something other than
// array assignments; each caller of lowerBlock words its own diagnostic.
var errScanBody = errors.New("zpl: scan body is not all array assignments")

// New creates an empty interpreter.
func New(opts Options) *Interp {
	return &Interp{
		opts:       opts,
		regions:    map[string]grid.Region{},
		dirs:       map[string]grid.Direction{},
		constNames: map[string]bool{},
		scalarVars: map[string]bool{},
		env: &expr.MapEnv{
			Arrays:  map[string]*field.Field{},
			Scalars: map[string]float64{},
		},
		regionOf: map[string]string{},
	}
}

// RunSource parses and executes src, returning the interpreter for
// inspection of its final state.
func RunSource(src string, opts Options) (*Interp, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	it := New(opts)
	return it, it.Run(prog)
}

// Env exposes the arrays and scalars, e.g. for tests and tools.
func (it *Interp) Env() *expr.MapEnv { return it.env }

// Region returns a declared region by name.
func (it *Interp) Region(name string) (grid.Region, bool) {
	r, ok := it.regions[name]
	return r, ok
}

// RegionOf returns the declaration region of an array.
func (it *Interp) RegionOf(array string) (grid.Region, bool) {
	rn, ok := it.regionOf[array]
	if !ok {
		return grid.Region{}, false
	}
	return it.Region(rn)
}

// Run executes a parsed program: declarations first, then statements. At
// the end it closes what the statements prepared, so no task-DAG worker
// outlives the program.
func (it *Interp) Run(prog *Program) error {
	it.handles = make([]handle, prog.slots)
	defer func() {
		for i := range it.handles {
			if p := it.handles[i].prep; p != nil {
				p.Close()
			}
		}
	}()
	for _, d := range prog.Decls {
		if err := it.declare(d); err != nil {
			return err
		}
	}
	return it.execAll(it, prog.Stmts, nil)
}

func (it *Interp) defined(name string) bool {
	return it.constNames[name] || it.scalarVars[name] ||
		it.env.Arrays[name] != nil || it.regions[name].Rank() > 0 || it.dirs[name] != nil
}

func (it *Interp) declare(d Decl) error {
	switch t := d.(type) {
	case *ConstDecl:
		if it.defined(t.Name) {
			return errf(t.Pos, "%q redeclared", t.Name)
		}
		v, err := it.evalScalarIn(t.Value, it)
		if err != nil {
			return err
		}
		it.constNames[t.Name] = true
		it.env.Scalars[t.Name] = v
		return nil

	case *RegionDecl:
		if it.defined(t.Name) {
			return errf(t.Pos, "%q redeclared", t.Name)
		}
		if t.OfDir != "" {
			reg, err := it.borderRegion(t.OfDir, t.OfBase, t.Pos)
			if err != nil {
				return err
			}
			it.regions[t.Name] = reg
			return nil
		}
		reg, err := it.evalRegion(t.Ranges, t.Pos)
		if err != nil {
			return err
		}
		it.regions[t.Name] = reg
		return nil

	case *DirectionDecl:
		if it.defined(t.Name) {
			return errf(t.Pos, "%q redeclared", t.Name)
		}
		dir := make(grid.Direction, len(t.Comps))
		for i, c := range t.Comps {
			v, err := it.evalInt(c, t.Pos, it)
			if err != nil {
				return err
			}
			dir[i] = v
		}
		it.dirs[t.Name] = dir
		return nil

	case *VarDecl:
		reg, ok := it.regions[t.Region]
		if !ok {
			return errf(t.Pos, "undeclared region %q", t.Region)
		}
		for _, name := range t.Names {
			if it.defined(name) {
				return errf(t.Pos, "%q redeclared", name)
			}
			f, err := field.New(name, reg, it.opts.Layout)
			if err != nil {
				return errf(t.Pos, "array %q: %v", name, err)
			}
			it.env.Arrays[name] = f
			it.regionOf[name] = t.Region
		}
		return nil

	case *ScalarVarDecl:
		for _, name := range t.Names {
			if it.defined(name) {
				return errf(t.Pos, "%q redeclared", name)
			}
			it.scalarVars[name] = true
			it.env.Scalars[name] = 0
		}
		return nil
	}
	return fmt.Errorf("zpl: unknown declaration %T", d)
}

// machine is what exec needs from whoever is running the program: the
// interpreter itself when the run is serial, one rank of a session when it
// is parallel. Everything else about a statement — region resolution, the
// checks on names and loop bounds, control flow, writeln's formatting — is
// exec's and so the same in both.
type machine interface {
	// scalar reads a scalar's present value, as expr.Env does.
	scalar(name string) (float64, bool)
	setScalar(name string, v float64)
	// enterLoop makes name a scalar variable for the length of a loop;
	// leaveLoop puts back what enterLoop found.
	enterLoop(name string) loopScope
	leaveLoop(name string, sc loopScope)
	// block runs an array assignment or scan block over region.
	block(s Stmt, slot int, pos Pos, region grid.Region) error
	// fold reduces t's right-hand side over region.
	fold(t *AssignStmt, op scan.ReduceOp, region grid.Region) (float64, error)
	// out is where writeln prints; nil discards.
	out() io.Writer
}

// loopScope is what a loop variable's name meant before its loop.
type loopScope struct {
	saved       float64
	had, wasVar bool
}

func (it *Interp) scalar(name string) (float64, bool) { return it.env.Scalar(name) }

func (it *Interp) setScalar(name string, v float64) { it.env.Scalars[name] = v }

func (it *Interp) enterLoop(name string) loopScope {
	sc := loopScope{wasVar: it.scalarVars[name]}
	sc.saved, sc.had = it.env.Scalars[name]
	it.scalarVars[name] = true
	return sc
}

func (it *Interp) leaveLoop(name string, sc loopScope) {
	if sc.had {
		it.env.Scalars[name] = sc.saved
	} else {
		delete(it.env.Scalars, name)
	}
	it.scalarVars[name] = sc.wasVar
}

func (it *Interp) out() io.Writer { return it.opts.Out }

// execAll runs statements in order under one covering region.
func (it *Interp) execAll(m machine, stmts []Stmt, region *grid.Region) error {
	for _, s := range stmts {
		if err := it.exec(m, s, region); err != nil {
			return err
		}
	}
	return nil
}

// exec runs one statement on m under the current covering region (nil if
// none). It is the only code that executes a statement.
func (it *Interp) exec(m machine, s Stmt, region *grid.Region) error {
	switch t := s.(type) {
	case *RegionStmt:
		reg, err := it.resolveRegion(t)
		if err != nil {
			return err
		}
		return it.exec(m, t.Body, &reg)

	case *BeginStmt:
		return it.execAll(m, t.Body, region)

	case *ScanStmt:
		if region == nil {
			return errf(t.Pos, "scan block needs a covering region")
		}
		return m.block(t, t.slot, t.Pos, *region)

	case *AssignStmt:
		if t.Reduce != "" {
			return it.execReduce(m, t, region)
		}
		if it.env.Arrays[t.Name] != nil {
			if region == nil {
				return errf(t.Pos, "array assignment to %q needs a covering region", t.Name)
			}
			return m.block(t, t.slot, t.Pos, *region)
		}
		if it.scalarVars[t.Name] {
			v, err := it.evalScalarIn(t.RHS, m)
			if err != nil {
				return err
			}
			m.setScalar(t.Name, v)
			return nil
		}
		if it.constNames[t.Name] {
			return errf(t.Pos, "cannot assign to constant %q", t.Name)
		}
		return errf(t.Pos, "assignment to undeclared name %q", t.Name)

	case *ForStmt:
		from, err := it.evalInt(t.From, t.Pos, m)
		if err != nil {
			return err
		}
		to, err := it.evalInt(t.To, t.Pos, m)
		if err != nil {
			return err
		}
		if it.env.Arrays[t.Var] != nil || it.constNames[t.Var] {
			return errf(t.Pos, "loop variable %q shadows a constant or array", t.Var)
		}
		step := 1
		if t.Down {
			step = -1
		}
		sc := m.enterLoop(t.Var)
		for v := from; err == nil && ((step > 0 && v <= to) || (step < 0 && v >= to)); v += step {
			m.setScalar(t.Var, float64(v))
			err = it.execAll(m, t.Body, region)
		}
		m.leaveLoop(t.Var, sc)
		return err

	case *IfStmt:
		v, err := it.evalCondIn(t.Cond, m)
		if err != nil {
			return err
		}
		if v {
			return it.execAll(m, t.Then, region)
		}
		return it.execAll(m, t.Else, region)

	case *RepeatStmt:
		for {
			if err := it.execAll(m, t.Body, region); err != nil {
				return err
			}
			if v, err := it.evalCondIn(t.Cond, m); err != nil || v {
				return err
			}
		}

	case *WritelnStmt:
		w := m.out()
		if w == nil {
			return nil
		}
		line, err := it.appendLine(it.line[:0], t, m)
		it.line = line
		if err != nil {
			return err
		}
		// As with Fprintln before it, a failing writer does not stop the
		// program.
		_, _ = w.Write(line)
		return nil
	}
	return fmt.Errorf("zpl: unknown statement %T", s)
}

// execReduce evaluates `x := op<< expr;` — a full reduction of the array
// expression over the covering region into a scalar.
func (it *Interp) execReduce(m machine, t *AssignStmt, region *grid.Region) error {
	if region == nil {
		return errf(t.Pos, "reduction needs a covering region")
	}
	if it.env.Arrays[t.Name] != nil {
		return errf(t.Pos, "reduction target %q must be a scalar (partial reductions are not supported)", t.Name)
	}
	if !it.scalarVars[t.Name] {
		return errf(t.Pos, "reduction target %q is not a declared scalar", t.Name)
	}
	op, ok := reduceOp(t.Reduce)
	if !ok {
		return errf(t.Pos, "unknown reduction %q", t.Reduce)
	}
	v, err := m.fold(t, op, *region)
	if err != nil {
		return err
	}
	m.setScalar(t.Name, v)
	return nil
}

// fold reduces through the statement's handle, lowering the operand when
// the handle is stale.
func (it *Interp) fold(t *AssignStmt, op scan.ReduceOp, region grid.Region) (float64, error) {
	h := &it.handles[t.slot]
	if h.stale(it) {
		*h = handle{builds: h.builds}
		node, err := it.lowerExpr(t.RHS, region.Rank(), h)
		if err != nil {
			return 0, err
		}
		h.fold = scan.NewReducer(node, it.env)
		h.builds++
	}
	v, err := h.fold.Reduce(op, region)
	if err != nil {
		return 0, errf(t.Pos, "%v", err)
	}
	return v, nil
}

// reduceOp maps a reduction prefix to its fold.
func reduceOp(prefix string) (scan.ReduceOp, bool) {
	switch prefix {
	case "+":
		return scan.SumReduce, true
	case "max":
		return scan.MaxReduce, true
	case "min":
		return scan.MinReduce, true
	}
	return 0, false
}

// block runs an array assignment or a scan block over region through
// the statement's handle, lowering and preparing it when the handle is
// stale — on the first trip, that is, with Exec's refusals in Exec's order.
func (it *Interp) block(s Stmt, slot int, pos Pos, region grid.Region) error {
	h := &it.handles[slot]
	if h.stale(it) {
		if h.prep != nil {
			h.prep.Close()
		}
		*h = handle{builds: h.builds}
		blk, err := it.lowerBlock(s, region, h)
		if err == errScanBody {
			// Legality (iii)/(iv): only array assignments covered by the
			// same region may appear in a scan block.
			return errf(pos, "scan blocks may contain only array assignments covered by the block's region")
		}
		if err != nil {
			return err
		}
		if h.prep, err = scan.Prepare(blk, it.env, it.opts.Exec); err != nil {
			return errf(pos, "%v", err)
		}
		h.builds++
	}
	if err := h.prep.Run(region); err != nil {
		return errf(pos, "%v", err)
	}
	return nil
}

// appendLine appends a writeln's output line to dst: the arguments separated
// by spaces, scalars evaluated on m, an array on rows of its own.
func (it *Interp) appendLine(dst []byte, t *WritelnStmt, m machine) ([]byte, error) {
	for i, a := range t.Args {
		if i > 0 {
			dst = append(dst, ' ')
		}
		if sl, ok := a.(*StrLit); ok {
			dst = append(dst, sl.S...)
			continue
		}
		if f := it.printedArray(a); f != nil {
			reg, _ := it.RegionOf(f.Name())
			dst = f.AppendFormat2(append(dst, '\n'), reg)
			continue
		}
		v, err := it.evalScalarIn(a, m)
		if err != nil {
			return dst, err
		}
		dst = field.AppendValue(dst, v)
	}
	return append(dst, '\n'), nil
}

// printedArray returns the array a writeln argument names bare — what
// writeln prints whole — or nil.
func (it *Interp) printedArray(a Expr) *field.Field {
	if ref, ok := a.(*NameRef); ok && !ref.Primed && ref.ShiftName == "" && ref.ShiftComps == nil {
		return it.env.Arrays[ref.Name]
	}
	return nil
}

// borderRegion evaluates `dir of base` (ZPL's of-operator).
func (it *Interp) borderRegion(dirName, baseName string, pos Pos) (grid.Region, error) {
	d, ok := it.dirs[dirName]
	if !ok {
		return grid.Region{}, errf(pos, "undeclared direction %q", dirName)
	}
	base, ok := it.regions[baseName]
	if !ok {
		return grid.Region{}, errf(pos, "undeclared region %q", baseName)
	}
	reg, err := base.Border(d)
	if err != nil {
		return grid.Region{}, errf(pos, "%v", err)
	}
	return reg, nil
}

// resolveRegion evaluates a region prefix in the current scalar state.
func (it *Interp) resolveRegion(t *RegionStmt) (grid.Region, error) {
	if t.OfDir != "" {
		return it.borderRegion(t.OfDir, t.OfBase, t.Pos)
	}
	if t.Name != "" {
		if reg, ok := it.regions[t.Name]; ok {
			return reg, nil
		}
		// A bare identifier that is not a region may be a scalar used as a
		// degenerate rank-1 range; fall through to range evaluation.
		if !it.scalarVars[t.Name] && !it.constNames[t.Name] {
			return grid.Region{}, errf(t.Pos, "undeclared region %q", t.Name)
		}
		v, err := it.evalInt(&NameRef{Name: t.Name, Pos: t.Pos}, t.Pos, it)
		if err != nil {
			return grid.Region{}, err
		}
		return grid.MustRegion(grid.NewRange(v, v)), nil
	}
	return it.evalRegion(t.Ranges, t.Pos)
}

func (it *Interp) evalRegion(ranges []RangeExpr, pos Pos) (grid.Region, error) {
	dims := make([]grid.Range, len(ranges))
	for i, r := range ranges {
		lo, err := it.evalInt(r.Lo, pos, it)
		if err != nil {
			return grid.Region{}, err
		}
		hi := lo
		if r.Hi != r.Lo {
			hi, err = it.evalInt(r.Hi, pos, it)
			if err != nil {
				return grid.Region{}, err
			}
		}
		dims[i] = grid.NewRange(lo, hi)
	}
	reg, err := grid.NewRegion(dims...)
	if err != nil {
		return grid.Region{}, errf(pos, "%v", err)
	}
	return reg, nil
}

// lowerBlock is the one lowering of executable array code to the IR: an
// array assignment becomes a plain block of one statement, a scan block its
// statements fused, over region. exec, Analyze and the parallel collector
// all come through here. A scan body that is not all assignments is
// errScanBody. h, when not nil, is the statement's handle and learns which
// scalar variables the lowering inlined.
func (it *Interp) lowerBlock(s Stmt, region grid.Region, h *handle) (*scan.Block, error) {
	switch t := s.(type) {
	case *AssignStmt:
		st, err := it.lowerAssign(t, region.Rank(), h)
		if err != nil {
			return nil, err
		}
		return scan.NewPlain(region, st), nil
	case *ScanStmt:
		stmts := make([]scan.Stmt, 0, len(t.Body))
		for _, sub := range t.Body {
			as, ok := sub.(*AssignStmt)
			if !ok {
				return nil, errScanBody
			}
			st, err := it.lowerAssign(as, region.Rank(), h)
			if err != nil {
				return nil, err
			}
			stmts = append(stmts, st)
		}
		return scan.NewScan(region, stmts...), nil
	}
	return nil, fmt.Errorf("zpl: statement %T is not array code", s)
}

// lowerAssign converts an array assignment's AST into a scan.Stmt.
func (it *Interp) lowerAssign(t *AssignStmt, rank int, h *handle) (scan.Stmt, error) {
	if it.env.Arrays[t.Name] == nil {
		return scan.Stmt{}, errf(t.Pos, "scan block statement assigns non-array %q", t.Name)
	}
	rhs, err := it.lowerExpr(t.RHS, rank, h)
	if err != nil {
		return scan.Stmt{}, err
	}
	return scan.Stmt{LHS: expr.Ref(t.Name), RHS: rhs}, nil
}

// lowerExpr converts an AST expression into an expr.Node for a rank-r
// covering region, telling h (when not nil) what it inlined.
func (it *Interp) lowerExpr(e Expr, rank int, h *handle) (expr.Node, error) {
	switch t := e.(type) {
	case *NumLit:
		return expr.Const(t.V), nil
	case *StrLit:
		return nil, errf(t.Pos, "string in arithmetic expression")
	case *UnaryExpr:
		x, err := it.lowerExpr(t.X, rank, h)
		if err != nil {
			return nil, err
		}
		return expr.Unary{Op: expr.Neg, X: x}, nil
	case *BinExpr:
		l, err := it.lowerExpr(t.L, rank, h)
		if err != nil {
			return nil, err
		}
		r, err := it.lowerExpr(t.R, rank, h)
		if err != nil {
			return nil, err
		}
		var op expr.Op
		switch t.Op {
		case Plus:
			op = expr.Add
		case Minus:
			op = expr.Sub
		case Star:
			op = expr.Mul
		case Slash:
			op = expr.Div
		default:
			return nil, errf(t.Pos, "bad operator %s", t.Op)
		}
		return expr.Binary{Op: op, L: l, R: r}, nil
	case *CallExpr:
		fn, err := intrinsic(t)
		if err != nil {
			return nil, err
		}
		args := make([]expr.Node, len(t.Args))
		for i, a := range t.Args {
			n, err := it.lowerExpr(a, rank, h)
			if err != nil {
				return nil, err
			}
			args[i] = n
		}
		return expr.Call{Fn: fn, Args: args}, nil
	case *NameRef:
		if it.env.Arrays[t.Name] != nil {
			ref := expr.Ref(t.Name)
			if t.Primed {
				ref = ref.Prime()
			}
			if t.ShiftName != "" {
				d, ok := it.dirs[t.ShiftName]
				if !ok {
					return nil, errf(t.Pos, "undeclared direction %q", t.ShiftName)
				}
				if len(d) != rank {
					return nil, errf(t.Pos, "direction %q has rank %d, region has rank %d", t.ShiftName, len(d), rank)
				}
				ref = ref.AtNamed(t.ShiftName, d)
			} else if t.ShiftComps != nil {
				d := make(grid.Direction, len(t.ShiftComps))
				for i, c := range t.ShiftComps {
					v, err := it.evalInt(c, t.Pos, it)
					if err != nil {
						return nil, err
					}
					d[i] = v
					if h != nil {
						h.inline(it, c)
					}
				}
				if len(d) != rank {
					return nil, errf(t.Pos, "direction %v has rank %d, region has rank %d", d, len(d), rank)
				}
				ref = ref.At(d)
			}
			return ref, nil
		}
		if t.Primed || t.ShiftName != "" || t.ShiftComps != nil {
			return nil, errf(t.Pos, "prime/@ applied to non-array %q", t.Name)
		}
		if it.constNames[t.Name] || it.scalarVars[t.Name] {
			return expr.Scalar(t.Name), nil
		}
		return nil, errf(t.Pos, "undeclared name %q", t.Name)
	}
	return nil, fmt.Errorf("zpl: unknown expression %T", e)
}

func intrinsicList() string {
	names := []string{"sqrt", "abs", "exp", "log", "min", "max", "pow"}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// evalCondIn evaluates a scalar condition on m.
func (it *Interp) evalCondIn(c Cond, m machine) (bool, error) {
	switch t := c.(type) {
	case *RelCond:
		l, err := it.evalScalarIn(t.L, m)
		if err != nil {
			return false, err
		}
		r, err := it.evalScalarIn(t.R, m)
		if err != nil {
			return false, err
		}
		switch t.Op {
		case Lt:
			return l < r, nil
		case Le:
			return l <= r, nil
		case Gt:
			return l > r, nil
		case Ge:
			return l >= r, nil
		case Eq:
			return l == r, nil
		case NotEq:
			return l != r, nil
		}
		return false, errf(t.Pos, "bad comparison %s", t.Op)
	case *AndCond:
		l, err := it.evalCondIn(t.L, m)
		if err != nil || !l {
			return false, err
		}
		return it.evalCondIn(t.R, m)
	case *OrCond:
		l, err := it.evalCondIn(t.L, m)
		if err != nil || l {
			return l, err
		}
		return it.evalCondIn(t.R, m)
	case *NotCond:
		v, err := it.evalCondIn(t.X, m)
		return !v, err
	}
	return false, fmt.Errorf("zpl: unknown condition %T", c)
}

// evalScalarIn evaluates an expression that must not reference arrays
// straight off the AST, reading scalar values from m.
func (it *Interp) evalScalarIn(e Expr, m machine) (float64, error) {
	switch t := e.(type) {
	case *NumLit:
		return t.V, nil
	case *StrLit:
		return 0, errf(t.Pos, "string in arithmetic expression")
	case *UnaryExpr:
		x, err := it.evalScalarIn(t.X, m)
		return -x, err
	case *BinExpr:
		l, err := it.evalScalarIn(t.L, m)
		if err != nil {
			return 0, err
		}
		r, err := it.evalScalarIn(t.R, m)
		if err != nil {
			return 0, err
		}
		switch t.Op {
		case Plus:
			return l + r, nil
		case Minus:
			return l - r, nil
		case Star:
			return l * r, nil
		case Slash:
			return l / r, nil
		}
		return 0, errf(t.Pos, "bad operator %s", t.Op)
	case *CallExpr:
		var args [2]float64
		for i, a := range t.Args {
			v, err := it.evalScalarIn(a, m)
			if err != nil {
				return 0, err
			}
			if i < len(args) {
				args[i] = v
			}
		}
		fn, err := intrinsic(t)
		if err != nil {
			return 0, err
		}
		return fn.Apply(args[0], args[1]), nil
	case *NameRef:
		if it.env.Arrays[t.Name] != nil {
			return 0, errf(t.Pos, "array %q in scalar expression", t.Name)
		}
		if t.Primed || t.ShiftName != "" || t.ShiftComps != nil {
			return 0, errf(t.Pos, "prime/@ applied to non-array %q", t.Name)
		}
		if it.constNames[t.Name] || it.scalarVars[t.Name] {
			if v, ok := m.scalar(t.Name); ok {
				return v, nil
			}
			return 0, errf(t.Pos, "scalar %q has no value", t.Name)
		}
		return 0, errf(t.Pos, "undeclared name %q", t.Name)
	}
	return 0, fmt.Errorf("zpl: unknown expression %T", e)
}

// intrinsic resolves a call's function, checking its argument count.
func intrinsic(t *CallExpr) (expr.Intrinsic, error) {
	fn := expr.Intrinsic(strings.ToLower(t.Fn))
	if fn.Arity() < 0 {
		return fn, errf(t.Pos, "unknown function %q (have: %s)", t.Fn, intrinsicList())
	}
	if len(t.Args) != fn.Arity() {
		return fn, errf(t.Pos, "%s takes %d arguments, got %d", fn, fn.Arity(), len(t.Args))
	}
	return fn, nil
}

// evalInt evaluates an expression that must come out an integer.
func (it *Interp) evalInt(e Expr, pos Pos, m machine) (int, error) {
	v, err := it.evalScalarIn(e, m)
	if err != nil {
		return 0, err
	}
	r := math.Round(v)
	if math.Abs(v-r) > 1e-9 {
		return 0, errf(pos, "expected an integer, got %g", v)
	}
	return int(r), nil
}
