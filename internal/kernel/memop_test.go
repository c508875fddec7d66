package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/exprgen"
	"wavefront/internal/field"
	"wavefront/internal/grid"
)

// Hand-built SSA tapes for the classifier: value i is defined by
// instruction i, exactly what fuse hands compactRegs.

func ld(fld uint16, off int) instr { return instr{op: opLoad, fld: fld, off: off} }
func st(fld, val uint16) instr     { return instr{op: opStore, fld: fld, a: val} }
func bin(o op, a, b uint16) instr  { return instr{op: o, a: a, b: b} }
func immOp(o op, a uint16) instr   { return instr{op: o, a: a, imm: 2} }
func elided(in instr) bool         { return in.flags&fElide != 0 }
func classified(tape []instr) []instr {
	n := len(tape)
	s := make([]uint16, 3*n)
	out, _ := compactRegs(tape, s[:n], s[n:2*n], s[2*n:2*n:3*n])
	return out
}
func hasFlag(in instr, f uint8) bool    { return in.flags&f != 0 }
func memA(in instr, at uint16) bool     { return hasFlag(in, fMemA) && in.la == at }
func memB(in instr, at uint16) bool     { return hasFlag(in, fMemB) && in.lb == at }
func inPlace(in instr, fld uint16) bool { return hasFlag(in, fMemDst) && in.fld == fld }

func TestMemOperandClassifier(t *testing.T) {
	const f, g = 0, 1

	t.Run("plain statement: memory operands, result in place", func(t *testing.T) {
		// g := f + f@(-7)
		tape := classified([]instr{ld(f, 0), ld(f, -7), bin(opAdd, 0, 1), st(g, 2)})
		if !elided(tape[0]) || !elided(tape[1]) {
			t.Error("both loads are consumed before any store to f: want memory operands")
		}
		if !memA(tape[2], 0) || !memB(tape[2], 1) || !inPlace(tape[2], g) || !elided(tape[3]) {
			t.Errorf("add should read both spans from memory and write g in place: %+v", tape[2:])
		}
	})

	t.Run("load straddling a store stays a copy", func(t *testing.T) {
		// t0 = f@1; f := t0*2 (writes f); g := t0 + f' — t0 is read after
		// the store to f, when memory no longer holds what it loaded.
		tape := classified([]instr{
			ld(f, 1), immOp(opMulImm, 0), st(f, 1),
			ld(g, 0), bin(opAdd, 0, 3), st(g, 4),
		})
		if elided(tape[0]) {
			t.Error("a load read again after a store to its field must stay a register copy")
		}
		if hasFlag(tape[1], fMemA) || hasFlag(tape[4], fMemA) {
			t.Error("consumers of a copied load must read its register")
		}
		if !elided(tape[3]) || !memB(tape[4], 3) {
			t.Error("the load of g is consumed by the add before g is stored: want a memory operand")
		}
	})

	t.Run("shifted view of the destination blocks in-place", func(t *testing.T) {
		// f := f@(-1) + g: from the second group of four on, an in-place
		// add would read elements of f the first group has just written.
		tape := classified([]instr{ld(f, -1), ld(g, 0), bin(opAdd, 0, 1), st(f, 2)})
		if !elided(tape[0]) || !memA(tape[2], 0) {
			t.Error("the shifted load is still a memory operand (it is read before the store)")
		}
		if hasFlag(tape[2], fMemDst) || elided(tape[3]) {
			t.Error("a live shifted view of the destination must keep the store a copy")
		}
	})

	t.Run("shifted view consumed earlier does not block", func(t *testing.T) {
		// f := f - f@(-7)*g   (Tomcatv's rx statement)
		tape := classified([]instr{
			ld(f, 0), ld(f, -7), ld(g, 0), bin(opMul, 1, 2), bin(opSub, 0, 3), st(f, 4),
		})
		if !inPlace(tape[4], f) || !elided(tape[5]) || !memA(tape[4], 0) {
			t.Errorf("exact alias only at the writing instruction: want in place, got %+v", tape[4])
		}
	})

	t.Run("forwarded value written in place, read back from the field", func(t *testing.T) {
		// f := g*2 ; (later) g := f + g reads the forwarded value — out of
		// f's span, where the multiply put it: f is not stored again before
		// that read.
		tape := classified([]instr{
			ld(g, 0), immOp(opMulImm, 0), st(f, 1),
			bin(opAdd, 1, 0), st(g, 3),
		})
		if !inPlace(tape[1], f) || !elided(tape[2]) {
			t.Errorf("a forwarded value whose field is not stored again before its last read is written in place: %+v", tape[1:3])
		}
		if !memA(tape[3], 1) {
			t.Errorf("the forwarded read takes f's span, named by the instruction that wrote it: %+v", tape[3])
		}
		if !inPlace(tape[3], g) || !elided(tape[4]) || !memB(tape[3], 0) {
			t.Errorf("second statement: want in place over its own operand, got %+v", tape[3])
		}
	})

	t.Run("forwarded value keeps its register", func(t *testing.T) {
		// ... when it outlives the next store to its field: the value stored
		// to f is read once more after f is stored again,
		// when f's span no longer holds it (no lowering produces this — a
		// load of f forwards from the latest store — but the rule must not
		// depend on that).
		tape := classified([]instr{
			ld(g, 0), immOp(opMulImm, 0), st(f, 1),
			immOp(opAddImm, 0), st(f, 3),
			bin(opAdd, 1, 3), st(g, 5),
		})
		if hasFlag(tape[1], fMemDst) || elided(tape[2]) {
			t.Error("a value read again after the next store to its field must stay in a register and be stored by copy")
		}
		if hasFlag(tape[5], fMemA) {
			t.Error("its readers must read the register")
		}
		if !inPlace(tape[3], f) || !memB(tape[5], 3) {
			t.Errorf("the second value of f is written in place and read back: %+v", tape[3:6])
		}
	})

	t.Run("pure copy", func(t *testing.T) {
		// g := f — nothing computes, so nothing can write in place; the
		// store reads f's span directly.
		tape := classified([]instr{ld(f, 0), st(g, 0)})
		if !elided(tape[0]) || !memA(tape[1], 0) || elided(tape[1]) {
			t.Errorf("copy: want load elided, store executed from memory; got %+v", tape)
		}
		// f := f@1 — the store is the next store to f, so the load is not
		// consumed before it and stays a copy.
		tape = classified([]instr{ld(f, 1), st(f, 0)})
		if elided(tape[0]) || elided(tape[1]) {
			t.Errorf("self-shifted copy must run load and store: %+v", tape)
		}
	})

	t.Run("broadcast in place", func(t *testing.T) {
		tape := classified([]instr{{op: opConst, imm: 3}, st(f, 0)})
		if !inPlace(tape[0], f) || !elided(tape[1]) {
			t.Errorf("f := 3 should fill f directly: %+v", tape)
		}
	})

	t.Run("instr stays 32 bytes", func(t *testing.T) {
		if sz := unsafe.Sizeof(instr{}); sz != 32 {
			t.Errorf("instr is %d bytes; the annotations were meant to fit its padding", sz)
		}
	})
}

// tomcatvEnv binds the Tomcatv arrays at n×n, row-major.
func tomcatvEnv(n int) *expr.MapEnv {
	bounds := grid.Square(2, 1, n)
	env := &expr.MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{}}
	for _, name := range []string{"x", "y", "rx", "ry", "aa", "dd", "d", "r"} {
		env.Arrays[name] = field.MustNew(name, bounds, field.RowMajor)
	}
	return env
}

// stmts pairs destination names with right-hand sides, as Lower reads them.
func stmts(dsts []string, rhs []expr.Node) []expr.Assign {
	out := make([]expr.Assign, len(dsts))
	for i := range dsts {
		out[i] = expr.Assign{LHS: expr.Ref(dsts[i]), RHS: rhs[i]}
	}
	return out
}

// tomcatvForward is the paper's Figure 2(b) forward block over env's arrays.
func tomcatvForward(env *expr.MapEnv) (dsts []string, rhs []expr.Node, udvs []dep.UDV) {
	ref := func(n string) expr.ArrayRef { return expr.Ref(n) }
	north := grid.North
	mul := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.Mul, L: l, R: r} }
	sub := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.Sub, L: l, R: r} }
	return []string{"r", "d", "rx", "ry"}, []expr.Node{
		mul(ref("aa"), ref("d").At(north).Prime()),
		expr.Binary{Op: expr.Div, L: expr.Const(1), R: sub(ref("dd"), mul(ref("aa").At(north), ref("r")))},
		sub(ref("rx"), mul(ref("rx").At(north).Prime(), ref("r"))),
		sub(ref("ry"), mul(ref("ry").At(north).Prime(), ref("r"))),
	}, []dep.UDV{udv(1, 0)}
}

// mulAdds counts the multiply-then-add superinstructions on a tape.
func mulAdds(tape []instr) (n int) {
	for _, in := range tape {
		if in.op >= opSubMul && in.op <= opAddMulImm {
			n++
		}
	}
	return n
}

// TestTomcatvTapeShapes pins the instruction counts the unit-step rewrite
// and the multiply-then-add peephole were sized on. Per row-span the forward
// block runs 5 instructions — r in place, three a − b·c, one 1/x — where
// the copying tape runs 8 loads, the same 5 and 4 stores; the Sweep3D octant, which
// runs the copying tape along skewed diagonals, folds its three
// cosine·flux products into the sums that consume them.
func TestTomcatvTapeShapes(t *testing.T) {
	ref := func(n string) expr.ArrayRef { return expr.Ref(n) }
	north, south := grid.North, grid.South
	mul := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.Mul, L: l, R: r} }
	sub := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.Sub, L: l, R: r} }
	add := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.Add, L: l, R: r} }
	_, forward, forwardUDVs := tomcatvForward(tomcatvEnv(16))
	lap := func(a string) expr.Node {
		return sub(expr.AddN(ref(a).At(north), ref(a).At(south), ref(a).At(grid.West), ref(a).At(grid.East)),
			mul(expr.Const(4), ref(a)))
	}
	back := func(a string) expr.Node { return mul(sub(ref(a), mul(ref("aa"), ref(a).At(south).Prime())), ref("d")) }
	upd := func(a, r string) expr.Node { return add(ref(a), mul(expr.Const(0.9), ref(r))) }
	flux := func(dist ...int) expr.Node { return mul(expr.Const(0.3), ref("flux").At(grid.Direction(dist)).Prime()) }
	cube := grid.Square(3, 0, 9)
	sweepEnv := &expr.MapEnv{Arrays: map[string]*field.Field{
		"flux": field.MustNew("flux", cube, field.RowMajor),
		"src":  field.MustNew("src", cube, field.RowMajor),
	}, Scalars: map[string]float64{}}
	cases := []struct {
		name              string
		env               *expr.MapEnv
		dsts              []string
		rhs               []expr.Node
		udvs              []dep.UDV
		mem, place, store int
		copying, execute  int // instructions a copying run and a unit-step span execute
		super             int // multiply-then-adds, on either tape
	}{
		{"forward", nil, []string{"r", "d", "rx", "ry"}, forward, forwardUDVs, 8, 4, 0, 17, 5, 3},
		{"backward", nil, []string{"rx", "ry"}, []expr.Node{back("rx"), back("ry")},
			[]dep.UDV{udv(-1, 0)}, 6, 2, 0, 12, 4, 2},
		{"residual", nil, []string{"rx", "ry"}, []expr.Node{lap("x"), lap("y")}, nil, 10, 2, 0, 20, 8, 2},
		{"update", nil, []string{"x", "y"}, []expr.Node{upd("x", "rx"), upd("y", "ry")}, nil, 4, 2, 0, 8, 2, 2},
		{"sweep3d octant", sweepEnv, []string{"flux"}, []expr.Node{expr.Binary{Op: expr.Div,
			L: expr.AddN(ref("src"), flux(-1, 0, 0), flux(0, -1, 0), flux(0, 0, -1)), R: expr.Const(1.5)}},
			[]dep.UDV{udv(1, 0, 0), udv(0, 1, 0), udv(0, 0, 1)}, 4, 1, 0, 9, 4, 3},
	}
	for _, c := range cases {
		env := c.env
		if env == nil {
			env = tomcatvEnv(16)
		}
		pr, err := Lower(env.Arrays[c.dsts[0]].Rank(), stmts(c.dsts, c.rhs), env, c.udvs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		mem, place, store := pr.FusedShape()
		if mem != c.mem || place != c.place || store != c.store {
			t.Errorf("%s: %d memory operands / %d in place / %d stored, want %d / %d / %d",
				c.name, mem, place, store, c.mem, c.place, c.store)
		}
		if len(pr.fused) != c.copying || len(pr.unit) != c.execute {
			t.Errorf("%s: a copying run executes %d instructions and a unit-step span %d, want %d and %d",
				c.name, len(pr.fused), len(pr.unit), c.copying, c.execute)
		}
		if f, u := mulAdds(pr.fused), mulAdds(pr.unit); f != c.super || u != c.super {
			t.Errorf("%s: %d multiply-then-adds on the copying tape, %d on the unit-step tape, want %d on both", c.name, f, u, c.super)
		}
	}
}

// stateLines returns the first and one-past-last cache line of the
// program's per-run offset tables.
func stateLines(t *testing.T, pr *Program) (lo, hi uintptr) {
	t.Helper()
	tables := [][]int{pr.base, pr.rbase, pr.steps, pr.stepA, pr.stepB, pr.saved}
	start := uintptr(unsafe.Pointer(&pr.base[0]))
	end := start
	for _, tb := range tables {
		if len(tb) == 0 {
			t.Fatal("empty state table")
		}
		if p := uintptr(unsafe.Pointer(&tb[0])); p != end {
			t.Fatalf("state tables are not one contiguous carve: gap at %#x (expected %#x)", p, end)
		}
		end += uintptr(len(tb)) * 8
	}
	return start / cacheLine, (end + cacheLine - 1) / cacheLine
}

// TestProgramStateOwnsItsCacheLines: the task-DAG runtime lowers one
// Program per worker back to back, and each worker rewrites its offset
// tables on every span. The tables of two such programs — and of a burst of
// them, whatever the allocator does with neighbours — must share no
// 64-byte line.
func TestProgramStateOwnsItsCacheLines(t *testing.T) {
	env := tomcatvEnv(16)
	rhs := []expr.Node{expr.Binary{Op: expr.Mul, L: expr.Ref("aa"), R: expr.Ref("d").At(grid.North)}}
	type span struct{ lo, hi uintptr }
	var spans []span
	var keep []*Program
	for i := 0; i < 64; i++ {
		pr, err := Lower(2, stmts([]string{"r"}, rhs), env, []dep.UDV{udv(1, 0)})
		if err != nil {
			t.Fatal(err)
		}
		keep = append(keep, pr)
		lo, hi := stateLines(t, pr)
		spans = append(spans, span{lo, hi})
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
				t.Fatalf("programs %d and %d share a cache line: lines [%d,%d) and [%d,%d)",
					i, j, spans[i].lo, spans[i].hi, spans[j].lo, spans[j].hi)
			}
		}
	}
	_ = keep
}

// closureOracle executes statements through per-point closures only, outer
// dimensions in the loop's order, with one of the two semantics the tape's
// traversal orders promise.
//
// spans: at each outer position, statement after statement, each one's
// right-hand side evaluated over the whole (ascending) span before any of
// it is assigned — the span path's defining semantics. For a legal block
// this is what the closure engine computes; for the deliberately unordered
// programs below (a := a@east + a@west) it is the array semantics the span
// path promises.
//
// !spans: every loop level stepped in the loop's directions, and at each
// point every statement evaluated and assigned in turn — what the closure
// engine computes for any program at all, and so what a walk by runs of
// length 1 must compute whatever the dependences.
func closureOracle(env *expr.MapEnv, dsts []string, rhs []expr.Node, region grid.Region, loop dep.LoopSpec, spans bool) {
	rank := region.Rank()
	v := loop.Perm[rank-1]
	var cls []expr.Compiled
	for _, n := range rhs {
		c, err := expr.Compile(n, env)
		if err != nil {
			panic(err)
		}
		cls = append(cls, c)
	}
	inner := region.Dim(v)
	tmp := make([]float64, inner.Size())
	p := make(grid.Point, rank)
	var walk func(lvl int)
	walk = func(lvl int) {
		if lvl == rank {
			for si := range cls {
				env.Arrays[dsts[si]].Set(p, cls[si](p))
			}
			return
		}
		if lvl == rank-1 && spans {
			for si := range cls {
				for e := range tmp {
					p[v] = inner.Lo + e*inner.Stride
					tmp[e] = cls[si](p)
				}
				f := env.Arrays[dsts[si]]
				for e := range tmp {
					p[v] = inner.Lo + e*inner.Stride
					f.Set(p, tmp[e])
				}
			}
			return
		}
		d := loop.Perm[lvl]
		r := region.Dim(d)
		for i := 0; i < r.Size(); i++ {
			k := i
			if loop.Dirs[d] == grid.HighToLow {
				k = r.Size() - 1 - i
			}
			p[d] = r.Lo + k*r.Stride
			walk(lvl + 1)
		}
	}
	if !region.Empty() {
		walk(0)
	}
}

type memopCase struct {
	name    string
	bounds  grid.Region
	region  grid.Region
	layouts []field.Layout
	dsts    []string
	rhs     []expr.Node
	loop    dep.LoopSpec
}

// lower lowers the case against env with no declared dependences, which
// leaves every dimension span-legal: Run takes the span path.
func (c memopCase) lower(t *testing.T, env *expr.MapEnv) *Program {
	t.Helper()
	pr, err := Lower(c.region.Rank(), stmts(c.dsts, c.rhs), env, nil)
	if err != nil {
		t.Fatalf("%s: Lower: %v", c.name, err)
	}
	return pr
}

// firstBitDiff returns the first point of region (canonical order) at which
// got and want differ bit for bit.
func firstBitDiff(region grid.Region, got, want *field.Field) (at grid.Point, differ bool) {
	region.Each(nil, func(p grid.Point) {
		if !differ && math.Float64bits(got.At(p)) != math.Float64bits(want.At(p)) {
			at, differ = append(grid.Point(nil), p...), true
		}
	})
	return at, differ
}

// sameBits demands bit-identical generator arrays over the whole storage.
func (c memopCase) sameBits(t *testing.T, leg string, got, want *expr.MapEnv) {
	t.Helper()
	for _, name := range exprgen.Names {
		g, w := got.Arrays[name], want.Arrays[name]
		if p, differ := firstBitDiff(c.bounds, g, w); differ {
			t.Fatalf("%s: %s: %s at %v: tape %v != closure oracle %v\nstatements: %v := %v\nregion %v loop %v layouts %v",
				c.name, leg, name, p, g.At(p), w.At(p), c.dsts, c.rhs, c.region, c.loop, c.layouts)
		}
	}
}

// check runs the case on the tape twice from identical inputs — over spans,
// against the closure oracle's span semantics, and point by point, against
// its per-point semantics — and demands bit-identical arrays both times.
// The two semantics differ for most generated programs (a shifted self-read
// along the span dimension is an array operation on one and a carried
// dependence on the other); a run of length 1 must be legal for all of
// them. It reports whether the span leg ran unit-step, which it must
// exactly when it has something to read or write in place and every field
// it touches steps by one element along the innermost loop dimension; the
// point leg must whenever it has something to read or write in place.
func (c memopCase) check(t *testing.T, seed int64) (unit bool) {
	t.Helper()
	got, want := exprgen.Env(c.bounds, c.layouts, seed), exprgen.Env(c.bounds, c.layouts, seed)
	pr := c.lower(t, got)
	if path := pr.Run(c.region, c.loop); path != PathSpan {
		t.Fatalf("%s: ran on %v, want the span path", c.name, path)
	}
	if !c.region.Empty() {
		v := c.loop.Perm[c.region.Rank()-1]
		wantUnit := len(pr.views) > 0
		for _, e := range pr.fields {
			if e.f.Stride(v)*c.region.Dim(v).Stride != 1 {
				wantUnit = false
			}
		}
		if unit = pr.unitRun; unit != wantUnit {
			t.Fatalf("%s: unit-step = %v, want %v (region %v, layouts %v, loop %v)", c.name, unit, wantUnit, c.region, c.layouts, c.loop)
		}
	}
	closureOracle(want, c.dsts, c.rhs, c.region, c.loop, true)
	c.sameBits(t, "spans", got, want)

	got, want = exprgen.Env(c.bounds, c.layouts, seed), exprgen.Env(c.bounds, c.layouts, seed)
	pr = c.lower(t, got)
	pr.RunScalar(c.region, c.loop)
	if !c.region.Empty() && pr.unitRun != (len(pr.views) > 0) {
		t.Fatalf("%s: point walk unit-step = %v with %d views", c.name, pr.unitRun, len(pr.views))
	}
	closureOracle(want, c.dsts, c.rhs, c.region, c.loop, false)
	c.sameBits(t, "points", got, want)
	return unit
}

func allLayouts(l field.Layout) []field.Layout { return []field.Layout{l, l, l, l} }

// TestInPlaceAliasingTable runs the named aliasing shapes the classifier is
// argued on, on unit-step spans.
func TestInPlaceAliasingTable(t *testing.T) {
	at := func(name string, dist ...int) expr.Node { return expr.Ref(name).At(grid.Direction(dist)) }
	add := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.Add, L: l, R: r} }
	half := func(n expr.Node) expr.Node { return expr.MulN(expr.Const(0.5), n) }
	rows := grid.MustRegion(grid.NewRange(1, 6), grid.NewRange(1, 40))
	bounds := grid.MustRegion(grid.NewRange(0, 7), grid.NewRange(0, 41))
	cases := []memopCase{
		{name: "a := a@east + a@west", dsts: []string{"a"},
			rhs: []expr.Node{add(half(at("a", 0, 1)), half(at("a", 0, -1)))}},
		{name: "a := a@west + b (live -1 view)", dsts: []string{"a"},
			rhs: []expr.Node{add(at("a", 0, -1), half(expr.Ref("b")))}},
		{name: "a := a@east + b (live +1 view)", dsts: []string{"a"},
			rhs: []expr.Node{add(at("a", 0, 1), half(expr.Ref("b")))}},
		{name: "a := a + a (both operands alias the result)", dsts: []string{"a"},
			rhs: []expr.Node{half(add(expr.Ref("a"), expr.Ref("a")))}},
		{name: "store-forward chain across three statements", dsts: []string{"a", "b", "c"},
			rhs: []expr.Node{half(expr.Ref("d")), add(expr.Ref("a"), expr.Ref("d")), add(expr.Ref("b"), expr.Ref("a"))}},
		{name: "copy of a forwarded value", dsts: []string{"a", "b", "c"},
			rhs: []expr.Node{half(add(expr.Ref("d"), at("d", -1, 0))), expr.Ref("a"), add(expr.Ref("b"), expr.Ref("a"))}},
		{name: "copy, shifted self-copy, broadcast", dsts: []string{"a", "b", "c"},
			rhs: []expr.Node{expr.Ref("d"), at("b", 0, 1), expr.Const(2.5)}},
		{name: "operand cached across a store to another field", dsts: []string{"a", "b"},
			rhs: []expr.Node{add(at("c", 0, -1), expr.Ref("d")), add(at("c", 0, -1), expr.Ref("a"))}},
		{name: "cached load dropped by a store to its field", dsts: []string{"a", "b"},
			rhs: []expr.Node{add(at("a", 0, 1), expr.Ref("d")), add(at("a", 0, 1), expr.Ref("c"))}},
	}
	for _, c := range cases {
		c.bounds, c.region, c.layouts, c.loop = bounds, rows, allLayouts(field.RowMajor), dep.Identity(2)
		if !c.check(t, 11) {
			t.Errorf("%s: row-major rows did not run unit-step", c.name)
		}
		c.loop.Dirs[0] = grid.HighToLow
		c.check(t, 12)
	}
}

// TestInPlaceMatchesClosureProperty is the tape-vs-closure property
// generator for multi-statement programs, over spans and point by point:
// random statements full of self-reads and ±1 views — the span dimension
// included, so the point leg walks real carried dependences — over rank 1–3,
// both layouts and mixtures, unit and strided regions, every loop order
// whose innermost dimension the fields make unit-step and the others too,
// and a 4096-byte row pitch (an aliasing distance the set-associative
// caches care about and the classifier must not).
func TestInPlaceMatchesClosureProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	units := 0
	for iter := 0; iter < 600; iter++ {
		rank := 1 + rng.Intn(3)
		dims := make([]grid.Range, rank)
		bdims := make([]grid.Range, rank)
		for d := range dims {
			n := 2 + rng.Intn(6)
			if d == rank-1 {
				n = 4 + rng.Intn(30)
			}
			dims[d] = grid.Range{Lo: 1, Hi: n, Stride: 1}
			bdims[d] = grid.NewRange(0, n+1)
		}
		pitch4096 := rank == 2 && iter%7 == 0
		if pitch4096 {
			bdims[1] = grid.NewRange(0, 511) // 512 float64 = 4096 B per row
			dims[1] = grid.NewRange(1+rng.Intn(3), 500+rng.Intn(10))
		}
		strided := iter%5 == 0
		if strided {
			d := rng.Intn(rank)
			dims[d].Stride = 2
		}
		if iter%41 == 0 {
			d := rng.Intn(rank)
			dims[d] = grid.Range{Lo: 3, Hi: 2, Stride: 1} // empty
		}
		var layouts []field.Layout
		switch iter % 4 {
		case 0, 1:
			layouts = allLayouts(field.RowMajor)
		case 2:
			layouts = allLayouts(field.ColMajor)
		default:
			layouts = []field.Layout{field.RowMajor, field.ColMajor, field.RowMajor, field.ColMajor}
		}
		loop := randLoop(rng, rank)
		c := memopCase{
			name:    fmt.Sprintf("iter %d", iter),
			bounds:  grid.MustRegion(bdims...),
			region:  grid.MustRegion(dims...),
			layouts: layouts,
			loop:    loop,
		}
		for n := 1 + rng.Intn(4); n > 0; n-- {
			lhs := exprgen.Names[rng.Intn(len(exprgen.Names))]
			c.dsts = append(c.dsts, lhs)
			c.rhs = append(c.rhs, exprgen.StmtRHS(rng, rank, lhs))
		}
		if c.check(t, int64(iter)) {
			units++
		}
	}
	if units < 100 {
		t.Errorf("only %d of 600 cases ran unit-step; the generator no longer exercises the rewrite", units)
	}
}

// TestUnitStepMatchesCopyingSequence replays generated programs on the
// fused tape — the copying sequence every non-unit run executes
// — and demands the same bits as the unit-step run. (Both are also held to
// the closure oracle above; this pins them to each other on Tomcatv-sized
// spans.)
func TestUnitStepMatchesCopyingSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bounds := grid.MustRegion(grid.NewRange(0, 9), grid.NewRange(0, 130))
	region := grid.MustRegion(grid.NewRange(1, 8), grid.NewRange(1, 129))
	for iter := 0; iter < 100; iter++ {
		var dsts []string
		var rhs []expr.Node
		for n := 1 + rng.Intn(4); n > 0; n-- {
			lhs := exprgen.Names[rng.Intn(len(exprgen.Names))]
			dsts = append(dsts, lhs)
			rhs = append(rhs, exprgen.StmtRHS(rng, 2, lhs))
		}
		run := func(unit bool) *expr.MapEnv {
			env := exprgen.Env(bounds, allLayouts(field.RowMajor), int64(iter))
			pr, err := Lower(2, stmts(dsts, rhs), env, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := traversal{region: region, loop: dep.Identity(2), path: PathSpan, depth: 1, n: pr.beginSpans(region, 1)}
			pr.unitRun = pr.unitRun && unit
			pr.initBase(region, tr.loop, true, 1)
			pr.odometer(&tr, 0)
			return env
		}
		unit, copying := run(true), run(false)
		for _, name := range exprgen.Names {
			u, c := unit.Arrays[name], copying.Arrays[name]
			bounds.Each(nil, func(p grid.Point) {
				if math.Float64bits(u.At(p)) != math.Float64bits(c.At(p)) {
					t.Fatalf("iter %d: %s at %v: unit-step %v != copying %v (%v := %v)", iter, name, p, u.At(p), c.At(p), dsts, rhs)
				}
			})
		}
	}
}
