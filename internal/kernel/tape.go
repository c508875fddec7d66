// Package kernel lowers compiled statement right-hand sides into one flat
// instruction tape executed over whole inner-loop spans at a time — the
// fused, unit-stride loop bodies the paper credits for the serial speedups
// of Figure 6 — instead of dispatching a tree of per-point closures.
//
// A Program is the lowered form of one block: a table of the fields the
// statements touch and one fused tape for all of them (plus that tape's
// unit-step form, below). Each tape instruction reads spans (load at a
// constant flat offset from the current loop position), broadcast
// constants, combines scratch registers with arithmetic and intrinsics, or
// stores a register back to a statement's destination field. Registers are
// full inner-loop spans leased from a bufpool (or plainly allocated when no
// pool is attached) and retained across runs, so the steady state allocates
// nothing. On a run where every field steps by one element — the common
// case, a row-major span — a field's span is a slice of its storage, and
// the unit-step tape reads operands from it and writes results to it
// directly wherever classify shows the copy through a register to be
// unobservable.
//
// There is one interpreter (execRun: one run of n points of the tape) and
// one odometer over the outer loop levels; what varies is the order in
// which the odometer hands runs to the interpreter. Span legality comes
// from the block's unconstrained distance vectors: a dimension v is
// span-executable iff every non-zero UDV either has a zero component along
// v or a non-zero component along some other dimension (in which case an
// outer loop carries it and no dependence connects two points of one span).
// When v is not, the two innermost levels may still admit a hyperplane
// whose diagonals are runs (skew.go). Failing both — a UDV non-zero only
// along v with no runnable skew — the same tape is walked one point at a
// time in exactly the derived loop order: a run of length 1 is legal under
// any dependence.
package kernel

import (
	"fmt"
	"math"

	"wavefront/internal/bufpool"
	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/field"
	"wavefront/internal/grid"
)

// op enumerates the tape ISA. Arithmetic comes in register-register and
// register-immediate forms; the non-commutative ops carry both immediate
// sides. The six multiply-then-add instructions are superinstructions, not
// fmas: each rounds the product and then the sum — two roundings, what the
// opMul/opAdd pair it replaces (and the closure path) computes — and saves
// the pass over a register that carried the product between the two. No
// statement lowers to them; fuseMulAdd forms them on the finished tapes. A
// hardware fma rounds once and would break the bit-identity contract
// between the engines, which is why vec.go converts every product
// explicitly.
type op uint8

const (
	opLoad    op = iota // dst[e] = field[base+off+e*step]
	opConst             // dst[e] = imm
	opAdd               // dst = a + b
	opSub               // dst = a - b
	opMul               // dst = a * b
	opDiv               // dst = a / b
	opAddImm            // dst = a + imm
	opSubImmR           // dst = a - imm
	opSubImmL           // dst = imm - a
	opMulImm            // dst = a * imm
	opDivImmR           // dst = a / imm
	opDivImmL           // dst = imm / a
	opNeg               // dst = -a
	opSqrt
	opAbs
	opExp
	opLog
	opMin
	opMax
	opPow
	opMinImm
	opMaxImm
	opPowImmR   // dst = pow(a, imm)
	opPowImmL   // dst = pow(imm, a)
	opSubMul    // dst = a - b*c
	opMulSub    // dst = b*c - a
	opAddMul    // dst = a + b*c
	opSubMulImm // dst = a - b*imm
	opMulImmSub // dst = b*imm - a
	opAddMulImm // dst = a + b*imm
	opStore     // field[base+e*step] = a; fld is the destination field
	opYield     // a is the value of a bare expression (Expr); ends its tape
)

// instr is one tape instruction. dst/a/b/c index scratch registers (c only
// on the three-operand multiply-then-add forms); fld indexes the program's
// field table; off is the constant flat-offset delta of a shifted load (sum
// of shift[d]*stride[d] over the field's dims). flags, la and lb are
// lowering-time annotations (see classify) from which the unit-step tape is
// built; no executor reads them, and they mean nothing once finish returns.
// Annotations and c sit in what was padding, so an instr is still 32 bytes.
type instr struct {
	op      op
	flags   uint8
	dst     uint16
	a, b, c uint16
	fld     uint16
	la, lb  uint16 // tape index of the instruction whose memory span operand a, b reads
	off     int
	imm     float64
}

// Annotations classify leaves on the fused tape: what an instruction may do
// differently on a run where every field steps by one element. buildUnit
// turns them into the unit-step tape.
const (
	// fElide marks an instruction the unit-step tape drops: a load whose
	// consumers read the field's memory directly, or a store whose value the
	// preceding instruction wrote in place.
	fElide  uint8 = 1 << iota
	fMemA         // operand a is the memory span fused[la] loads, or writes in place
	fMemB         // likewise b and fused[lb]
	fMemDst       // the result goes to field fld's span, not register dst
	// fInner marks (from the lowerer on) a load whose shift moves along a
	// dimension its field lays out contiguously: its span overlaps the
	// offset-zero span of the same field one run writes. A shift along the
	// other dimensions only lies at least a whole row away.
	fInner
)

// memView is a span of a field that a unit-step run reads or writes where
// it lies: the field, the flat offset from the run's start, and whether
// that offset moves along the run (fInner).
type memView struct {
	fld   uint16
	inner bool
	off   int
}

// Program is a block lowered against concrete fields. It is not safe for
// concurrent use; the pipelined runtime builds one per rank.
type Program struct {
	rank   int
	spanOK []bool    // per dimension, from the block's UDVs
	udvs   []dep.UDV // retained for skew derivation

	// fields is the field table: entry k is the k-th distinct field the
	// statements touch, which tape instructions name by k. names binds every
	// array name they reference, destinations included, once each, to its
	// field entry; Rebind resolves them again. Both are views of one table
	// (see fieldEntry), and lowering allocates it once, sized by the
	// statements' array references.
	fields []fieldEntry
	names  []fieldEntry
	// strides and lows are every field's geometry, dimension-major:
	// strides[d*len(fields)+k] is field k's element stride along dimension
	// d (along returns one dimension's row). They are carved from the
	// allocation that holds the per-run offset tables below.
	strides []int
	lows    []int

	// fused is every statement in one pass — loads deduped across
	// statements, stores inline via opStore, in statement order — executed
	// one run at a time: a span, a skewed diagonal, or a single point.
	// fusedRegs is its register count.
	fused     []instr
	fusedRegs int

	// skc caches the hyperplane derivation for the one loop spec a kernel
	// runs with (nil until the first non-spannable Run).
	skc *skewCache

	// Scratch state. regs are leased spans retained across runs (the fused
	// tape's operand table); base is the per-field flat offset of the current
	// outer-loop position; saved holds one base snapshot per loop level
	// (level l at [l*nf, (l+1)*nf)) for the odometer recursion. steps is the
	// per-element flat step of the current run (a span or a skewed diagonal).
	// A span or a point starts at base itself; rbase is the per-field flat
	// start of a run that does not — a skewed diagonal, an Expr span.
	// stepA/stepB are the skewed executor's per-field iteration steps along
	// the inner loop pair. The six tables are rewritten per run or per span,
	// so allocState carves them from one allocation that shares no cache
	// line with anything else — in particular not with the tables of the
	// next worker's Program, lowered right after this one.
	pool   *bufpool.Pool
	prank  int
	regs   [][]float64
	regCap int
	base   []int
	saved  []int
	rbase  []int
	steps  []int
	stepA  []int
	stepB  []int
	// The unit-step tape: fused with the elided loads and stores removed and
	// every operand an index into ops — regs is its head, and from len(regs)
	// on it holds views, ops[len(regs)+k] being views[k] of the current span.
	// unitRun selects it: true on a span run where every field steps by one
	// element (and there is a view to gain by it), decided once per Run. ops is rewritten per span, so like the
	// offset tables it owns its cache lines.
	unit    []instr
	views   []memView
	ops     [][]float64
	unitRun bool
}

// fieldEntry is one row of a program's table, read two ways. As fields[k]
// it is the k-th distinct field the statements touch and its storage, which
// the hot loops read; as names[k] it is the k-th distinct array name they
// reference and the field entry that name binds to. Two names may alias one
// field but no name binds two, so there are never fewer names than fields,
// and both are interned in the order the lowerer meets them: one table
// holds both.
type fieldEntry struct {
	data []float64
	f    *field.Field
	name string
	fld  uint16
}

// along returns dimension d's row of a dimension-major per-field table
// (strides, lows).
func (pr *Program) along(t []int, d int) []int {
	nf := len(pr.fields)
	return t[d*nf : d*nf+nf]
}

// Path identifies the order in which a Run walked the tape: what the
// odometer hands the interpreter once its outer levels are placed.
type Path int8

const (
	// PathScalar is one point at a time — runs of length 1 — with every
	// loop level stepped in the derived order.
	PathScalar Path = iota
	// PathSpan is whole spans of the innermost (span-legal) dimension.
	PathSpan
	// PathSkewed is hyperplane (skewed diagonal) runs of the two innermost
	// loop levels.
	PathSkewed
)

func (p Path) String() string {
	switch p {
	case PathScalar:
		return "scalar"
	case PathSpan:
		return "span"
	case PathSkewed:
		return "skewed"
	}
	return fmt.Sprintf("Path(%d)", int8(p))
}

// Lower builds the program for a block's statements: each one's
// destination must be an unshifted array reference; env resolves every
// name. udvs are the block's dependence distance vectors, which determine
// span legality per dimension. Scalars are captured from env at lower time,
// exactly as expr.Compile captures them. An error means the block is not
// tape-executable (e.g. a referenced field's rank differs from the region's)
// and the caller should fall back to the closure engine.
func Lower(rank int, stmts []expr.Assign, env expr.Env, udvs []dep.UDV) (*Program, error) {
	pr, err := lower(rank, stmts, env, false)
	if err != nil {
		return nil, err
	}
	pr.spanOK = spanMask(rank, udvs)
	pr.udvs = udvs
	return pr, nil
}

// lower is Lower and LowerExpr: it lowers stmts against env — or, with
// yield, the right-hand side of the one statement it is given, whose value
// the tape hands back (opYield) instead of storing it.
//
// Compiling a block allocates once per table, whatever its width: a first
// walk counts the nodes and the array references, which bound the
// instructions and the distinct names; the table is allocated at the bound
// and bound in the lowerer's order, which fixes the field count the offset
// tables are carved for (allocState); the instruction stream is lowered into
// the array that ends up holding both finished tapes (finish), and the
// passes between take their tables from one scratch buffer.
func lower(rank int, stmts []expr.Assign, env expr.Env, yield bool) (*Program, error) {
	if rank < 1 {
		return nil, fmt.Errorf("kernel: rank must be >= 1, got %d", rank)
	}
	// One instruction at most per node, since constants fold into their
	// consumers and never expand, plus one store (or yield) per statement.
	nodes, refs := len(stmts), 0
	for _, s := range stmts {
		expr.Walk(s.RHS, func(n expr.Node) {
			nodes++
			if _, ok := n.(expr.ArrayRef); ok {
				refs++
			}
		})
	}
	if !yield {
		refs += len(stmts)
	}
	if nodes > 0xffff {
		return nil, fmt.Errorf("kernel: block of %d nodes is more than a tape can index", nodes)
	}
	pr := &Program{rank: rank}
	if err := pr.bindAll(stmts, env, refs, yield); err != nil {
		return nil, err
	}
	pr.allocState()
	tapes := make([]instr, 2*nodes)
	lw := lowerer{pr: pr, env: env, ins: tapes[:0:nodes]}
	for _, s := range stmts {
		dst := uint16(yieldDst)
		if !yield {
			dst = pr.fieldOf(s.LHS.Name)
		}
		if err := lw.statement(s.RHS, dst); err != nil {
			return nil, err
		}
	}
	pr.finish(&lw, tapes)
	return pr, nil
}

// finish turns the lowerer's statements into the program's fused tape and
// its unit-step form and forms the multiply-then-add superinstructions on
// both. The lowerer's stream fills the front half of tapes; fuse and
// compactRegs rewrite it where it lies into the fused tape, and the
// unit-step tape is built right behind it, so the two finished tapes share
// one backing array. Their passes take remap, last, phys and the free list
// from one scratch buffer that dies with the call; remap and last share its
// first third, since fuse is done with remap before compactRegs fills last.
func (pr *Program) finish(lw *lowerer, tapes []instr) {
	n := cap(lw.ins)
	scratch := make([]uint16, 3*n)
	ssa := fuse(lw.ins, scratch[:lw.regs])
	pr.fused, pr.fusedRegs = compactRegs(ssa, scratch[:n], scratch[n:2*n], scratch[2*n:2*n:3*n])
	pr.buildUnit(tapes[len(pr.fused):len(pr.fused)])
	pr.fused = fuseMulAdd(pr.fused, nil)
	pr.unit = fuseMulAdd(pr.unit, pr.overwrites)
}

// cacheLine is the coherence granule the per-span state is kept apart by.
const cacheLine = 64

// allocState carves every per-field int table out of the middle of one
// allocation with a cache line of padding on either side: base, rbase,
// steps, stepA, stepB and saved, which runs rewrite, so every line they
// touch lies inside the allocation; then the fields' strides and lows,
// which it fills in.
func (pr *Program) allocState() {
	const pad = cacheLine / 8 // ints per line
	nf := len(pr.fields)
	need := (5 + 3*pr.rank) * nf
	if need == 0 {
		return // a constant expression touches no field
	}
	buf := make([]int, need+2*pad)[pad : pad+need]
	cut := func(n int) []int {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	pr.base, pr.rbase, pr.steps = cut(nf), cut(nf), cut(nf)
	pr.stepA, pr.stepB = cut(nf), cut(nf)
	pr.saved = cut(pr.rank * nf)
	pr.strides, pr.lows = cut(pr.rank*nf), cut(pr.rank*nf)
	for k, e := range pr.fields {
		for d := 0; d < pr.rank; d++ {
			pr.along(pr.strides, d)[k] = e.f.Stride(d)
			pr.along(pr.lows, d)[k] = e.f.Bounds().Dim(d).Lo
		}
	}
}

// buildUnit derives the unit-step tape from the annotated fused tape into
// unit, an empty slice with room for it: the elided loads and stores go,
// each distinct span an elided load reads or an in-place destination writes
// becomes a view, and operands are renumbered into ops — registers keep
// their numbers, view k is ops[Registers()+k]. A program with nothing to
// elide has no views and never runs unit-step.
func (pr *Program) buildUnit(unit []instr) {
	nv := 0
	for i := range pr.fused {
		if in := &pr.fused[i]; in.op == opLoad && in.flags&fElide != 0 || in.flags&fMemDst != 0 {
			nv++
		}
	}
	if nv == 0 {
		return
	}
	r := pr.Registers()
	pr.views = make([]memView, 0, nv)
	pr.unit = unit
	// One view per (field, offset): two instructions that name the same
	// span share the slice header execRun points at it.
	view := func(fld uint16, off int, inner bool) uint16 {
		for k, v := range pr.views {
			if v.fld == fld && v.off == off {
				return uint16(r + k)
			}
		}
		pr.views = append(pr.views, memView{fld: fld, off: off, inner: inner})
		return uint16(r + len(pr.views) - 1)
	}
	// The span behind a memory operand: what the elided load fused[at] would
	// have copied, or — off is zero on everything but a load — the
	// destination span the arithmetic fused[at] wrote in place.
	source := func(at uint16) uint16 {
		src := &pr.fused[at]
		return view(src.fld, src.off, src.flags&fInner != 0)
	}
	for i := range pr.fused {
		in := &pr.fused[i]
		if in.flags&fElide != 0 {
			continue
		}
		ni := *in
		if in.flags&fMemA != 0 {
			ni.a = source(in.la)
		}
		if in.flags&fMemB != 0 {
			ni.b = source(in.lb)
		}
		if in.flags&fMemDst != 0 {
			ni.dst = view(in.fld, 0, false)
		}
		pr.unit = append(pr.unit, ni)
	}
}

// overwrites reports whether, on the unit-step tape, an instruction writing
// ops[dst] group by group would overwrite elements of ops[src] that later
// groups still read: dst is an in-place destination and src another span of
// the same field, shifted along the run. (The same span exactly is the
// aliasing vec.go's read-group-then-write contract covers; a span shifted
// along outer dimensions only lies a whole pitch away.)
func (pr *Program) overwrites(dst, src uint16) bool {
	r := pr.Registers()
	if int(dst) < r || int(src) < r {
		return false
	}
	d, s := pr.views[int(dst)-r], pr.views[int(src)-r]
	return d.fld == s.fld && s.off != d.off && s.inner
}

// fuseMulAdd is the superinstruction peephole, run over a finished tape
// (either one: operands are whatever the tape's executor indexes). A
// multiply whose result lands in a scratch register only the very next
// instruction — an add or a subtract — reads becomes one multiply-then-add
// that takes the multiplicands as its second and third operands and the
// consumer's destination as its own: the same two roundings, one pass over
// the span less, and no register traffic for the product. overwrites (nil
// when no destination can alias memory) vetoes a pair whose fused form would
// write in place over a multiplicand it has yet to read. The tape is
// rewritten where it lies and its shortened form returned.
func fuseMulAdd(tape []instr, overwrites func(dst, src uint16) bool) []instr {
	w := 0
	for i := 0; i < len(tape); i++ {
		if o := tape[i].op; (o == opMul || o == opMulImm) && i+1 < len(tape) {
			if f, ok := mulAdd(tape, i, overwrites); ok {
				tape[w] = f
				w++
				i++
				continue
			}
		}
		if w != i {
			tape[w] = tape[i]
		}
		w++
	}
	return tape[:w]
}

// mulAdd forms the superinstruction of the multiply tape[i] and the
// instruction after it, if they are a pair.
func mulAdd(tape []instr, i int, overwrites func(dst, src uint16) bool) (instr, bool) {
	m, s := &tape[i], &tape[i+1]
	if s.op != opAdd && s.op != opSub {
		return instr{}, false
	}
	p := m.dst
	if (s.a == p) == (s.b == p) || m.flags&fMemDst != 0 {
		return instr{}, false // not the product's reader, or p + p; or the product is a field's value
	}
	// The product must die with the pair: nothing may read its register
	// before the register is defined again. (The tail from i+2 on is still
	// as lowered — rewritten instructions land at or before i.)
	for j := i + 2; s.dst != p && j < len(tape); j++ {
		in := &tape[j]
		if readsA(in.op) && in.a == p || readsB(in.op) && in.b == p {
			return instr{}, false
		}
		if in.op != opStore && in.op != opYield && in.dst == p {
			break
		}
	}
	if overwrites != nil && (overwrites(s.dst, m.a) || m.op == opMul && overwrites(s.dst, m.b)) {
		return instr{}, false
	}
	f := instr{dst: s.dst, a: s.a, b: m.a, c: m.b, imm: m.imm}
	form := [3]op{opSubMul, opMulSub, opAddMul}
	if m.op == opMulImm {
		form, f.c = [3]op{opSubMulImm, opMulImmSub, opAddMulImm}, 0
	}
	switch {
	case s.op == opSub && s.b == p:
		f.op = form[0]
	case s.op == opSub:
		f.op, f.a = form[1], s.b
	default:
		f.op = form[2]
		if s.a == p {
			f.a = s.b
		}
	}
	return f, true
}

// readsA reports whether o reads register operand a (opStore reads a as its
// value to store); readsB likewise for b. Both speak of the instructions the
// lowerer emits: the multiply-then-add forms exist only once fuseMulAdd has
// run, and nothing asks about them.
func readsA(o op) bool { return o != opLoad && o != opConst }

func readsB(o op) bool {
	switch o {
	case opAdd, opSub, opMul, opDiv, opMin, opMax, opPow:
		return true
	}
	return false
}

// fuse rewrites the lowerer's output — the statements one after another,
// each ending in its opStore (or opYield), over nregs stack-discipline
// registers — into the single pass every traversal runs. Statements stay in
// order, but a load of a field at an offset already loaded reuses the
// earlier register, and a store forwards its register to subsequent loads
// of the stored field at offset zero while invalidating that field's other
// cached loads. The reused register holds exactly the values a fresh load
// would read, so the fused pass is bit-identical to the unfused one.
// Registers are renamed to SSA form here — a value's SSA name is the tape
// index of the instruction that defines it (every statement defines its
// registers before it reads them, so one remap table serves them all) —
// and compacted by compactRegs back to a stack-discipline footprint.
//
// The SSA tape is written over ins where it lies — instruction k lands at
// or before position k, after it has been read — and remap, one entry per
// lowerer register, is the caller's scratch.
func fuse(ins []instr, remap []uint16) []instr {
	ssa := ins[:0]
	for _, in := range ins {
		if in.op == opLoad {
			if r, ok := loadedValue(ssa, in.fld, in.off); ok {
				remap[in.dst] = r
				continue
			}
		}
		if readsA(in.op) {
			in.a = remap[in.a]
		}
		if readsB(in.op) {
			in.b = remap[in.b]
		}
		if in.op != opStore && in.op != opYield {
			remap[in.dst] = uint16(len(ssa))
			in.dst = uint16(len(ssa))
		}
		ssa = append(ssa, in)
	}
	return ssa
}

// loadedValue finds the SSA value on the tape so far that already holds
// field fld at offset off. Scanning back from the end, the latest store to
// fld decides: its value forwards to an offset-zero read, and it hides
// every load of fld before it; short of such a store, an identical load is
// reused.
func loadedValue(ssa []instr, fld uint16, off int) (uint16, bool) {
	for i := len(ssa) - 1; i >= 0; i-- {
		switch in := &ssa[i]; {
		case in.op == opStore && in.fld == fld:
			return in.a, off == 0
		case in.op == opLoad && in.fld == fld && in.off == off:
			return uint16(i), true
		}
	}
	return 0, false
}

// unread is compactRegs' last-use entry for a value nothing reads.
const unread = 0xffff

// compactRegs renumbers an SSA-form tape (instruction i defines value i;
// stores define nothing) in place onto a small physical register set: a
// last-use scan frees each register at its final read, and a LIFO free list
// hands the hottest register back first, so the fused pass keeps roughly
// the per-statement stack-discipline working set and its spans stay
// cache-resident. The same scan feeds classify, which annotates each
// instruction for unit-step runs as it is renumbered.
//
// last, phys and free are the caller's scratch: last and phys hold one
// entry per instruction, and free is empty with room for as many (a value is
// freed at most once). A tape index fits a uint16 — lower refuses a block of
// more than 0xffff nodes — so unread, which no index reaches, marks a value
// nothing reads.
func compactRegs(ssa []instr, last, phys, free []uint16) ([]instr, int) {
	last = last[:len(ssa)]
	for i := range last {
		last[i] = unread
	}
	for i := range ssa {
		in := &ssa[i]
		if readsA(in.op) {
			last[in.a] = uint16(i)
		}
		if readsB(in.op) {
			last[in.b] = uint16(i)
		}
	}
	high := 0
	for i := range ssa {
		in := &ssa[i]
		classify(ssa, last, i)
		sa, sb := in.a, in.b
		ra, rb := readsA(in.op), readsB(in.op)
		if ra {
			in.a = phys[sa]
		}
		if rb {
			in.b = phys[sb]
		}
		// Free operands whose final read is this instruction before
		// allocating dst: the result may then reuse an operand's register,
		// which is safe because every op reads its inputs before writing.
		if ra && int(last[sa]) == i {
			free = append(free, phys[sa])
		}
		if rb && int(last[sb]) == i && sb != sa {
			free = append(free, phys[sb])
		}
		if in.op != opStore && in.op != opYield {
			var p uint16
			if n := len(free); n > 0 {
				p, free = free[n-1], free[:n-1]
			} else {
				p = uint16(high)
				high++
			}
			phys[i] = p
			in.dst = p
		}
	}
	return ssa, high
}

// classify annotates ssa[i] — whose operands a and b still carry SSA names,
// while every earlier instruction is already final — for runs on which all
// fields step by one element, where a span of a field is a slice of its
// storage and need not be copied to be read or written:
//
//   - A load becomes a memory operand (fElide; its consumers get fMemA/fMemB
//     and its tape index) when every read of its value precedes the next
//     store to the loaded field: the consumers then see, at their own later
//     position, the very values the load would have copied, because nothing
//     writes that field in between. A load whose value is still read at or
//     after such a store stays a copy.
//   - A store is elided, and the instruction before it writes the
//     destination span itself (fMemDst), when that instruction is the
//     arithmetic (or broadcast) producing the stored value, every other read
//     of the value precedes the next store to the destination field — those
//     readers, statements the store forwards its value to, then take the
//     field's offset-zero span as a memory operand, by the first rule's
//     argument — and the instruction reads no shifted memory operand of the
//     destination field. By the first rule the only memory operands
//     of the destination still unread at that point are the instruction's
//     own. One at offset zero aliases the result exactly, which the
//     read-group-then-write contract of vec.go already covers (the
//     compactor aliases registers the same way); one at any other offset
//     would, from the second group on, read elements the first groups have
//     just overwritten, so it keeps the statement on the copying sequence.
//
// Both rewrites move a memory access to a later (load) or earlier (store)
// tape position across instructions that do not touch that memory, so a
// unit-step run computes bit for bit what the copying sequence computes.
func classify(ssa []instr, last []uint16, i int) {
	in := &ssa[i]
	// storedBefore reports a store to fld after tape position from, up to and
	// including position until.
	storedBefore := func(fld uint16, from int, until uint16) bool {
		for j := from + 1; j <= int(until); j++ {
			if ssa[j].op == opStore && ssa[j].fld == fld {
				return true
			}
		}
		return false
	}
	switch in.op {
	case opLoad:
		if last[i] != unread && !storedBefore(in.fld, i, last[i]) {
			in.flags |= fElide
		}
		return
	case opConst:
		return
	}
	inMemory := func(v uint16) bool {
		src := &ssa[v]
		return src.op == opLoad && src.flags&fElide != 0 || src.flags&fMemDst != 0
	}
	if inMemory(in.a) {
		in.flags |= fMemA
		in.la = in.a
	}
	if readsB(in.op) && inMemory(in.b) {
		in.flags |= fMemB
		in.lb = in.b
	}
	if in.op != opStore || i == 0 || int(in.a) != i-1 {
		return
	}
	prev := &ssa[i-1]
	if prev.op == opLoad || storedBefore(in.fld, i, last[i-1]) {
		return
	}
	shifted := func(mem uint8, l uint16) bool {
		return prev.flags&mem != 0 && ssa[l].fld == in.fld && ssa[l].off != 0
	}
	if shifted(fMemA, prev.la) || shifted(fMemB, prev.lb) {
		return
	}
	prev.flags |= fMemDst
	prev.fld = in.fld
	in.flags |= fElide
}

// SpanMask reports, per dimension, whether the dimension may legally run as
// whole spans: every non-zero UDV must either not move along it or also
// move along another dimension (so an outer loop carries the dependence).
func SpanMask(rank int, udvs []dep.UDV) []bool { return spanMask(rank, udvs) }

func spanMask(rank int, udvs []dep.UDV) []bool {
	ok := make([]bool, rank)
	for v := range ok {
		ok[v] = true
		for _, u := range udvs {
			if len(u.Dist) != rank || u.Dist[v] == 0 {
				continue
			}
			solo := true
			for d, c := range u.Dist {
				if d != v && c != 0 {
					solo = false
					break
				}
			}
			if solo {
				ok[v] = false
				break
			}
		}
	}
	return ok
}

// Registers returns the scratch register count the program leases: the
// fused tape's file, at least one.
func (pr *Program) Registers() int {
	if pr.fusedRegs < 1 {
		return 1
	}
	return pr.fusedRegs
}

// FusedLoads returns the number of load instructions in the fused pass
// (for tests asserting cross-statement operand dedup).
func (pr *Program) FusedLoads() int {
	n := 0
	for _, in := range pr.fused {
		if in.op == opLoad {
			n++
		}
	}
	return n
}

// FusedShape reports how classify annotated the fused tape for unit-step
// runs: loads that became memory operands, stores elided because the value
// is written in place, and stores that still copy (for tests).
func (pr *Program) FusedShape() (memOperands, inPlace, stored int) {
	for _, in := range pr.fused {
		switch {
		case in.op == opLoad && in.flags&fElide != 0:
			memOperands++
		case in.op == opStore && in.flags&fElide != 0:
			inPlace++
		case in.op == opStore:
			stored++
		}
	}
	return
}

// bindAll resolves every array name the statements reference into the
// program's table — each destination (unless the statement yields), then
// its right-hand side's references, in the order the lowerer meets them —
// allocating the table once with room for refs names.
func (pr *Program) bindAll(stmts []expr.Assign, env expr.Env, refs int, yield bool) error {
	pr.names = make([]fieldEntry, 0, refs)
	pr.fields = pr.names[:0]
	var err error
	for _, s := range stmts {
		if !yield {
			err = pr.bind(env, s.LHS.Name)
		}
		expr.Walk(s.RHS, func(n expr.Node) {
			if r, ok := n.(expr.ArrayRef); ok && err == nil {
				err = pr.bind(env, r.Name)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// bind resolves name in env and interns it, and its field if the field is
// new, into the program's table. The table has room: bindAll sized it by
// the references, and every name is one.
func (pr *Program) bind(env expr.Env, name string) error {
	for _, e := range pr.names {
		if e.name == name {
			return nil
		}
	}
	f := env.Array(name)
	if f == nil {
		return fmt.Errorf("kernel: unbound array %q", name)
	}
	if f.Rank() != pr.rank {
		return fmt.Errorf("kernel: field %q has rank %d, region has rank %d", f.Name(), f.Rank(), pr.rank)
	}
	fld := len(pr.fields)
	for k := range pr.fields {
		if pr.fields[k].f == f {
			fld = k
			break
		}
	}
	if fld >= yieldDst {
		return fmt.Errorf("kernel: too many fields")
	}
	// The new name's row lies at or past the field count, so it overwrites
	// no field; a new field's row lies at or before it, in a row no field
	// has filled yet.
	pr.names = append(pr.names, fieldEntry{name: name, fld: uint16(fld)})
	if fld == len(pr.fields) {
		pr.fields = pr.names[:fld+1]
		pr.fields[fld].f, pr.fields[fld].data = f, f.Data()
	}
	return nil
}

// fieldOf returns the field entry a bound name binds to.
func (pr *Program) fieldOf(name string) uint16 {
	for _, e := range pr.names {
		if e.name == name {
			return e.fld
		}
	}
	panic(fmt.Sprintf("kernel: array %q was not bound before lowering", name))
}

// val is a lowering-time value: a scratch register or a compile-time
// constant (literal or captured scalar). Constants fold through arithmetic
// with the same float64 operations the closure engine performs per point,
// so folding once at lower time is bit-identical.
type val struct {
	reg   int // -1 for a constant
	imm   float64
	konst bool
}

// lowerer emits a block's statements into one instruction stream with
// stack-discipline register reuse: registers free in LIFO order, so a tree
// of depth d needs O(d) registers. next restarts with every statement;
// regs is the widest any of them got. ins has room for every instruction
// the statements can lower to (lower sizes it), so it never grows.
type lowerer struct {
	pr   *Program
	env  expr.Env
	ins  []instr
	next int
	regs int
}

// statement lowers rhs followed by the store of its value to field dst —
// or by opYield when dst is yieldDst (a bare expression).
func (lw *lowerer) statement(rhs expr.Node, dst uint16) error {
	lw.next = 0
	v, err := lw.lower(rhs)
	if err != nil {
		return err
	}
	out := lw.materialize(v)
	if dst == yieldDst {
		lw.emit(instr{op: opYield, a: out})
		return nil
	}
	lw.emit(instr{op: opStore, a: out, fld: dst})
	return nil
}

func (lw *lowerer) alloc() uint16 {
	r := lw.next
	lw.next++
	if lw.next > lw.regs {
		lw.regs = lw.next
	}
	if r > 0xffff {
		panic("kernel: register overflow")
	}
	return uint16(r)
}

func (lw *lowerer) free(v val) {
	if !v.konst {
		lw.next--
	}
}

func (lw *lowerer) emit(in instr) { lw.ins = append(lw.ins, in) }

// materialize forces v into a register (emitting a broadcast for constants).
func (lw *lowerer) materialize(v val) uint16 {
	if !v.konst {
		return uint16(v.reg)
	}
	dst := lw.alloc()
	lw.emit(instr{op: opConst, dst: dst, imm: v.imm})
	return dst
}

func (lw *lowerer) lower(n expr.Node) (val, error) {
	switch t := n.(type) {
	case expr.Const:
		return val{konst: true, imm: float64(t)}, nil
	case expr.Scalar:
		v, ok := lw.env.Scalar(string(t))
		if !ok {
			return val{}, fmt.Errorf("kernel: unbound scalar %q", string(t))
		}
		return val{konst: true, imm: v}, nil
	case expr.ArrayRef:
		fi := lw.pr.fieldOf(t.Name)
		off := 0
		var flags uint8
		if t.Shift != nil {
			if len(t.Shift) != lw.pr.rank {
				return val{}, fmt.Errorf("kernel: reference %s has shift rank %d, want %d", t, len(t.Shift), lw.pr.rank)
			}
			for d, c := range t.Shift {
				stride := lw.pr.along(lw.pr.strides, d)[fi]
				off += c * stride
				if c != 0 && stride == 1 {
					flags = fInner
				}
			}
		}
		dst := lw.alloc()
		lw.emit(instr{op: opLoad, flags: flags, dst: dst, fld: fi, off: off})
		return val{reg: int(dst)}, nil
	case expr.Unary:
		if t.Op != expr.Neg {
			return val{}, fmt.Errorf("kernel: bad unary op %v", t.Op)
		}
		x, err := lw.lower(t.X)
		if err != nil {
			return val{}, err
		}
		if x.konst {
			return val{konst: true, imm: -x.imm}, nil
		}
		lw.free(x)
		dst := lw.alloc()
		lw.emit(instr{op: opNeg, dst: dst, a: uint16(x.reg)})
		return val{reg: int(dst)}, nil
	case expr.Binary:
		return lw.lowerBinary(t)
	case expr.Call:
		return lw.lowerCall(t)
	}
	return val{}, fmt.Errorf("kernel: unknown node type %T", n)
}

func (lw *lowerer) lowerBinary(t expr.Binary) (val, error) {
	l, err := lw.lower(t.L)
	if err != nil {
		return val{}, err
	}
	r, err := lw.lower(t.R)
	if err != nil {
		return val{}, err
	}
	if l.konst && r.konst {
		switch t.Op {
		case expr.Add:
			return val{konst: true, imm: l.imm + r.imm}, nil
		case expr.Sub:
			return val{konst: true, imm: l.imm - r.imm}, nil
		case expr.Mul:
			return val{konst: true, imm: l.imm * r.imm}, nil
		case expr.Div:
			return val{konst: true, imm: l.imm / r.imm}, nil
		}
		return val{}, fmt.Errorf("kernel: bad binary op %v", t.Op)
	}
	// Free operands (LIFO), then allocate the result; the result may
	// therefore reuse an operand's register, which the executors allow
	// because every instruction reads its inputs before writing dst.
	lw.free(r)
	lw.free(l)
	dst := lw.alloc()
	switch {
	case !l.konst && !r.konst:
		var o op
		switch t.Op {
		case expr.Add:
			o = opAdd
		case expr.Sub:
			o = opSub
		case expr.Mul:
			o = opMul
		case expr.Div:
			o = opDiv
		default:
			return val{}, fmt.Errorf("kernel: bad binary op %v", t.Op)
		}
		lw.emit(instr{op: o, dst: dst, a: uint16(l.reg), b: uint16(r.reg)})
	case r.konst:
		var o op
		switch t.Op {
		case expr.Add:
			o = opAddImm
		case expr.Sub:
			o = opSubImmR
		case expr.Mul:
			o = opMulImm
		case expr.Div:
			o = opDivImmR
		default:
			return val{}, fmt.Errorf("kernel: bad binary op %v", t.Op)
		}
		lw.emit(instr{op: o, dst: dst, a: uint16(l.reg), imm: r.imm})
	default: // l.konst
		var o op
		switch t.Op {
		case expr.Add:
			o = opAddImm
		case expr.Sub:
			o = opSubImmL
		case expr.Mul:
			o = opMulImm
		case expr.Div:
			o = opDivImmL
		default:
			return val{}, fmt.Errorf("kernel: bad binary op %v", t.Op)
		}
		lw.emit(instr{op: o, dst: dst, a: uint16(r.reg), imm: l.imm})
	}
	return val{reg: int(dst)}, nil
}

func (lw *lowerer) lowerCall(t expr.Call) (val, error) {
	if want := t.Fn.Arity(); want < 0 {
		return val{}, fmt.Errorf("kernel: unknown intrinsic %q", t.Fn)
	} else if len(t.Args) != want {
		return val{}, fmt.Errorf("kernel: %s takes %d arguments, got %d", t.Fn, want, len(t.Args))
	}
	switch t.Fn {
	case expr.Sqrt, expr.Abs, expr.Exp, expr.Log:
		x, err := lw.lower(t.Args[0])
		if err != nil {
			return val{}, err
		}
		var o op
		var f func(float64) float64
		switch t.Fn {
		case expr.Sqrt:
			o, f = opSqrt, math.Sqrt
		case expr.Abs:
			o, f = opAbs, math.Abs
		case expr.Exp:
			o, f = opExp, math.Exp
		default:
			o, f = opLog, math.Log
		}
		if x.konst {
			return val{konst: true, imm: f(x.imm)}, nil
		}
		lw.free(x)
		dst := lw.alloc()
		lw.emit(instr{op: o, dst: dst, a: uint16(x.reg)})
		return val{reg: int(dst)}, nil
	}
	// Two-argument intrinsics.
	l, err := lw.lower(t.Args[0])
	if err != nil {
		return val{}, err
	}
	r, err := lw.lower(t.Args[1])
	if err != nil {
		return val{}, err
	}
	if l.konst && r.konst {
		switch t.Fn {
		case expr.Min:
			return val{konst: true, imm: expr.Minf(l.imm, r.imm)}, nil
		case expr.Max:
			return val{konst: true, imm: expr.Maxf(l.imm, r.imm)}, nil
		}
		return val{konst: true, imm: math.Pow(l.imm, r.imm)}, nil
	}
	lw.free(r)
	lw.free(l)
	dst := lw.alloc()
	switch {
	case !l.konst && !r.konst:
		var o op
		switch t.Fn {
		case expr.Min:
			o = opMin
		case expr.Max:
			o = opMax
		default:
			o = opPow
		}
		lw.emit(instr{op: o, dst: dst, a: uint16(l.reg), b: uint16(r.reg)})
	case r.konst:
		var o op
		switch t.Fn {
		case expr.Min:
			o = opMinImm
		case expr.Max:
			o = opMaxImm
		default:
			o = opPowImmR
		}
		lw.emit(instr{op: o, dst: dst, a: uint16(l.reg), imm: r.imm})
	default: // l.konst; min and max commute, pow does not
		var o op
		switch t.Fn {
		case expr.Min:
			o = opMinImm
		case expr.Max:
			o = opMaxImm
		default:
			o = opPowImmL
		}
		lw.emit(instr{op: o, dst: dst, a: uint16(r.reg), imm: l.imm})
	}
	return val{reg: int(dst)}, nil
}

// Rebind resolves the program's array names in env again, in place and
// without allocating, so a program lowered once runs over other fields of
// the same shape. Every name must resolve to a field of the program's rank
// with the strides it was lowered against — a shifted load's offset bakes
// them in — and two names to one field exactly when they did: the in-place
// rewrites of the unit-step tape were decided on that aliasing. Rebind
// reports false, changing nothing, when that does not hold; the caller
// lowers again. The scalars the tape captured are the caller's to check.
//
// A nil env drops every field and data reference, so a program kept between
// runs pins no storage; it runs again after a Rebind to a non-nil env.
func (pr *Program) Rebind(env expr.Env) bool {
	if env == nil {
		for k := range pr.fields {
			pr.fields[k].f, pr.fields[k].data = nil, nil
		}
		if pr.ops != nil {
			clear(pr.ops[len(pr.regs):]) // the unit tape's views of the last span
		}
		return true
	}
	for i := range pr.names {
		fn := &pr.names[i]
		f := env.Array(fn.name)
		if f == nil || f.Rank() != pr.rank {
			return false
		}
		for d := 0; d < pr.rank; d++ {
			if f.Stride(d) != pr.along(pr.strides, d)[fn.fld] {
				return false
			}
		}
		for _, prev := range pr.names[:i] {
			if (env.Array(prev.name) == f) != (prev.fld == fn.fld) {
				return false
			}
		}
	}
	for i := range pr.names {
		fn := &pr.names[i]
		f := env.Array(fn.name)
		e := &pr.fields[fn.fld]
		e.f, e.data = f, f.Data()
		for d := 0; d < pr.rank; d++ {
			pr.along(pr.lows, d)[fn.fld] = f.Bounds().Dim(d).Lo
		}
	}
	return true
}

// SetScratch routes register leases through pool under rank's shard. Any
// registers already leased return to their previous source first. A nil
// pool (the default) allocates registers plainly and lets the GC reclaim
// them with the program.
func (pr *Program) SetScratch(pool *bufpool.Pool, rank int) {
	if pr.pool == pool && pr.prank == rank {
		return
	}
	pr.dropRegs()
	pr.pool = pool
	pr.prank = rank
}

// ReleaseScratch returns the leased registers to the pool; the next Run
// re-leases them into the same operand table. Callers that track
// pool.Outstanding should release when a run retires. Without a pool the
// registers are the program's own scratch, not a lease, and stay: a kept
// program runs again without allocating them.
func (pr *Program) ReleaseScratch() {
	if pr.pool != nil {
		pr.dropRegs()
	}
}

// dropRegs hands the registers back to their source — the pool, or the GC
// — and leaves the operand table unleased.
func (pr *Program) dropRegs() {
	for i := range pr.regs {
		pr.pool.Put(pr.prank, pr.regs[i])
		pr.regs[i] = nil
	}
	pr.regCap = 0
}

func (pr *Program) ensureRegs(n int) {
	if pr.ops != nil && pr.regCap >= n {
		return
	}
	pr.dropRegs()
	if pr.ops == nil {
		// One table: the registers, then the unit tape's views. The views
		// are repointed every span, so the table is padded like the offset
		// tables — a line of slice headers either side.
		const pad = (cacheLine + 23) / 24
		nr := pr.Registers()
		pr.ops = make([][]float64, nr+len(pr.views)+2*pad)[pad : pad+nr+len(pr.views)]
		pr.regs = pr.ops[:nr]
	}
	for i := range pr.regs {
		pr.regs[i] = pr.pool.Get(pr.prank, n)
	}
	pr.regCap = n
}

// Run executes the program over region in the derived loop order and
// reports how it walked the tape. When the innermost dimension is
// span-executable the tape runs over whole spans (always ascending — legal,
// since no dependence connects two points of a span). When it is not but a
// legal hyperplane of the two innermost levels exists, the tape runs over
// skewed diagonal runs, wave by wave. Otherwise it runs point by point in
// exactly the loop's directions.
func (pr *Program) Run(region grid.Region, loop dep.LoopSpec) Path {
	pr.checkRank(region)
	path := PathScalar
	var sk dep.Skew
	if v := loop.Perm[pr.rank-1]; pr.spanOK[v] {
		path = PathSpan
	} else if pr.rank >= 2 {
		if s, ok := pr.skewFor(loop); ok && skewRunnable(region, s) {
			path, sk = PathSkewed, s
		}
	}
	pr.walk(region, loop, path, sk)
	return path
}

// RunScalar walks the tape point by point in the derived loop order
// regardless of span or skew legality. It is the baseline engine behind
// -kernel=scalar.
func (pr *Program) RunScalar(region grid.Region, loop dep.LoopSpec) {
	pr.checkRank(region)
	pr.walk(region, loop, PathScalar, dep.Skew{})
}

func (pr *Program) checkRank(region grid.Region) {
	if region.Rank() != pr.rank {
		panic(fmt.Sprintf("kernel: region rank %d, program rank %d", region.Rank(), pr.rank))
	}
}

// traversal is one walk of a region: the order (path), how many loop levels
// the odometer steps before it reaches a leaf (depth), and the leaf's
// shape — n points per run for spans and points, the plane's extents and
// hyperplane coefficients for waves. It is plain data on walk's stack (no
// closure per Run), so a steady-state Run allocates nothing.
type traversal struct {
	region         grid.Region
	loop           dep.LoopSpec
	path           Path
	depth          int
	n              int
	na, nb, ca, cb int
}

// walk executes the tape over region in the order path names (sk is the
// hyperplane of PathSkewed).
func (pr *Program) walk(region grid.Region, loop dep.LoopSpec, path Path, sk dep.Skew) {
	for d := 0; d < pr.rank; d++ {
		if region.Dim(d).Empty() {
			return
		}
	}
	t := traversal{region: region, loop: loop, path: path}
	v := loop.Perm[pr.rank-1]
	switch path {
	case PathSpan:
		t.depth, t.n = pr.rank-1, pr.beginSpans(region, v)
	case PathSkewed:
		t.depth = pr.rank - 2
		t.na, t.nb, t.ca, t.cb = region.Dim(sk.A).Size(), region.Dim(sk.B).Size(), sk.Ca, sk.Cb
		pr.beginWaves(loop, sk, t.na, t.nb)
	default:
		t.depth, t.n = pr.rank, 1
		pr.beginPoints()
	}
	pr.initBase(region, loop, path == PathSpan, v)
	pr.odometer(&t, 0)
}

// beginSpans readies the registers, the per-field steps and the unit-step
// decision for span runs of region along dimension v, and returns the span
// length.
func (pr *Program) beginSpans(region grid.Region, v int) int {
	d := region.Dim(v)
	pr.ensureRegs(d.Size())
	unit := len(pr.views) > 0
	for fi, s := range pr.along(pr.strides, v) {
		pr.steps[fi] = s * d.Stride
		if pr.steps[fi] != 1 {
			unit = false
		}
	}
	pr.setUnitRun(unit)
	return d.Size()
}

// beginPoints readies one-element registers for runs of length 1. Such a
// run has no second element, so any step addresses it; 1 takes the
// interpreter's contiguous load and store, and the unit-step tape applies
// whatever the fields' strides are — a single element of a field is always
// a slice of its storage.
func (pr *Program) beginPoints() {
	pr.ensureRegs(1)
	for fi := range pr.steps {
		pr.steps[fi] = 1
	}
	pr.setUnitRun(len(pr.views) > 0)
}

// setUnitRun writes only on change: the Program header may share a cache
// line with another worker's, and tiles of one kernel all decide alike.
func (pr *Program) setUnitRun(unit bool) {
	if pr.unitRun != unit {
		pr.unitRun = unit
	}
}

// initBase sets each field's flat offset to the loop's starting corner. In
// span mode the inner dimension v always starts at its low end; every other
// mode starts every dimension at its direction start.
func (pr *Program) initBase(region grid.Region, loop dep.LoopSpec, span bool, v int) {
	clear(pr.base)
	for d := 0; d < pr.rank; d++ {
		r := region.Dim(d)
		x := r.Lo
		if loop.Dirs[d] == grid.HighToLow && !(span && d == v) {
			x = r.Lo + (r.Size()-1)*r.Stride
		}
		lows := pr.along(pr.lows, d)
		for fi, s := range pr.along(pr.strides, d) {
			pr.base[fi] += (x - lows[fi]) * s
		}
	}
}

// odometer is the one base-offset recursion: loop levels 0..depth-1 step
// the per-field base offsets in the derived order, and at depth the leaf
// executes — one run of t.n points at the current position (a whole span,
// or a single point when every level is stepped), or the wave sweep of the
// inner plane.
func (pr *Program) odometer(t *traversal, lvl int) {
	if lvl == t.depth {
		if t.path == PathSkewed {
			pr.execWaves(t.na, t.nb, t.ca, t.cb)
			return
		}
		pr.execRun(pr.base, t.n)
		return
	}
	d := t.loop.Perm[lvl]
	r := t.region.Dim(d)
	cnt := r.Size()
	step := r.Stride
	if t.loop.Dirs[d] == grid.HighToLow {
		step = -step
	}
	save := pr.saved[lvl*len(pr.base) : (lvl+1)*len(pr.base)]
	copy(save, pr.base)
	strides := pr.along(pr.strides, d)
	for i := 0; ; i++ {
		pr.odometer(t, lvl+1)
		if i+1 >= cnt {
			break
		}
		for fi, s := range strides {
			pr.base[fi] += step * s
		}
	}
	copy(pr.base, save)
}

// execRun executes one run of n points — a span or a skewed diagonal. Each
// field's start offset is base[fld] (the odometer's own table for a span or
// a point, rbase for a diagonal) and per-element flat step is
// steps[fld] (negative for runs that walk a dimension downward). The
// arithmetic bodies are the register-blocked helpers of vec.go; the
// math-call ops stay as plain loops, where the call dominates.
//
// A run executes the fused tape over the registers, or — on a unit-step
// run — the unit tape over ops, whose views are first pointed at the
// current span of their fields. Which one is settled before the loop; the
// instructions themselves do not know.
func (pr *Program) execRun(base []int, n int) {
	tape, ops := pr.fused, pr.regs
	if pr.unitRun {
		tape, ops = pr.unit, pr.ops
		vs := ops[len(ops)-len(pr.views):]
		for k := range pr.views {
			v := &pr.views[k]
			b := base[v.fld] + v.off
			vs[k] = pr.fields[v.fld].data[b : b+n]
		}
	}
	for ii := range tape {
		in := &tape[ii]
		switch in.op {
		case opLoad:
			dst := ops[in.dst][:n]
			src := pr.fields[in.fld].data
			b := base[in.fld] + in.off
			if step := pr.steps[in.fld]; step == 1 {
				copy(dst, src[b:b+n])
			} else {
				vgather(dst, src, b, step)
			}
		case opStore:
			out := ops[in.a][:n]
			dd := pr.fields[in.fld].data
			b := base[in.fld]
			if step := pr.steps[in.fld]; step == 1 {
				copy(dd[b:b+n], out)
			} else {
				vscatter(dd, out, b, step)
			}
		case opConst:
			vfill(ops[in.dst][:n], in.imm)
		case opAdd:
			vadd(ops[in.dst][:n], ops[in.a], ops[in.b])
		case opSub:
			vsub(ops[in.dst][:n], ops[in.a], ops[in.b])
		case opMul:
			vmul(ops[in.dst][:n], ops[in.a], ops[in.b])
		case opDiv:
			vdiv(ops[in.dst][:n], ops[in.a], ops[in.b])
		case opAddImm:
			vaddImm(ops[in.dst][:n], ops[in.a], in.imm)
		case opSubImmR:
			vsubImmR(ops[in.dst][:n], ops[in.a], in.imm)
		case opSubImmL:
			vsubImmL(ops[in.dst][:n], ops[in.a], in.imm)
		case opMulImm:
			vmulImm(ops[in.dst][:n], ops[in.a], in.imm)
		case opDivImmR:
			vdivImmR(ops[in.dst][:n], ops[in.a], in.imm)
		case opDivImmL:
			vdivImmL(ops[in.dst][:n], ops[in.a], in.imm)
		case opNeg:
			vneg(ops[in.dst][:n], ops[in.a])
		case opSqrt:
			dst, a := ops[in.dst][:n], ops[in.a][:n]
			for e := range dst {
				dst[e] = math.Sqrt(a[e])
			}
		case opAbs:
			dst, a := ops[in.dst][:n], ops[in.a][:n]
			for e := range dst {
				dst[e] = math.Abs(a[e])
			}
		case opExp:
			dst, a := ops[in.dst][:n], ops[in.a][:n]
			for e := range dst {
				dst[e] = math.Exp(a[e])
			}
		case opLog:
			dst, a := ops[in.dst][:n], ops[in.a][:n]
			for e := range dst {
				dst[e] = math.Log(a[e])
			}
		case opMin:
			vmin(ops[in.dst][:n], ops[in.a], ops[in.b])
		case opMax:
			vmax(ops[in.dst][:n], ops[in.a], ops[in.b])
		case opPow:
			dst, a, b := ops[in.dst][:n], ops[in.a][:n], ops[in.b][:n]
			for e := range dst {
				dst[e] = math.Pow(a[e], b[e])
			}
		case opMinImm:
			vminImm(ops[in.dst][:n], ops[in.a], in.imm)
		case opMaxImm:
			vmaxImm(ops[in.dst][:n], ops[in.a], in.imm)
		case opPowImmR:
			dst, a := ops[in.dst][:n], ops[in.a][:n]
			for e := range dst {
				dst[e] = math.Pow(a[e], in.imm)
			}
		case opPowImmL:
			dst, a := ops[in.dst][:n], ops[in.a][:n]
			for e := range dst {
				dst[e] = math.Pow(in.imm, a[e])
			}
		case opSubMul:
			vsubMul(ops[in.dst][:n], ops[in.a], ops[in.b], ops[in.c])
		case opMulSub:
			vmulSub(ops[in.dst][:n], ops[in.a], ops[in.b], ops[in.c])
		case opAddMul:
			vaddMul(ops[in.dst][:n], ops[in.a], ops[in.b], ops[in.c])
		case opSubMulImm:
			vsubMulImm(ops[in.dst][:n], ops[in.a], ops[in.b], in.imm)
		case opMulImmSub:
			vmulImmSub(ops[in.dst][:n], ops[in.a], ops[in.b], in.imm)
		case opAddMulImm:
			vaddMulImm(ops[in.dst][:n], ops[in.a], ops[in.b], in.imm)
		}
	}
}

// yielded is the value span of the run an Expr's tape just executed: the
// operand of the opYield that ends whichever tape ran.
func (pr *Program) yielded(n int) []float64 {
	if pr.unitRun {
		return pr.ops[pr.unit[len(pr.unit)-1].a][:n]
	}
	return pr.regs[pr.fused[len(pr.fused)-1].a][:n]
}
