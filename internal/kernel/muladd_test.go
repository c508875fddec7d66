package kernel

import (
	"fmt"
	"math"
	"testing"

	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/exprgen"
	"wavefront/internal/field"
	"wavefront/internal/grid"
)

// mulAddValues are the operands the multiply-then-add bodies are held to the
// two-instruction sequence over: the signed zeros, ones and infinities, a
// NaN, a denormal, and the pair 1 ± 2⁻³⁰ — (1+2⁻³⁰)(1−2⁻³⁰) = 1 − 2⁻⁶⁰
// rounds to 1, so a − b·c with a = 1 is 0 after two roundings and 2⁻⁶⁰ after
// one: a contracted fma cannot pass.
var mulAddValues = []float64{
	0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64 * 3, 1 + 1.0/(1<<30), 1 - 1.0/(1<<30),
}

// TestFusedMulAddMatchesTwoOps: each of the six multiply-then-add bodies
// computes, bit for bit, what the multiply body followed by the add or
// subtract body computes — over every triple of the special values, at
// lengths on both sides of the unroll, with the destination aliasing each
// operand in turn (the compactor and the in-place rewrite both make it so).
// One thing is not pinned, because nothing pins it: when both terms of a sum
// are NaNs with different payloads (NaN + 0·Inf: math.NaN()'s and the
// hardware's default), amd64 returns the first operand's, and the compiler
// may order the operands of an addition either way in any of the bodies —
// the closure engine's included. A NaN must then meet a NaN.
func TestFusedMulAddMatchesTwoOps(t *testing.T) {
	type body struct {
		name  string
		fused func(dst, a, b, c []float64, imm float64)
		two   func(dst, a, b, c []float64, imm float64) // dst aliases nothing
	}
	bodies := []body{
		{"a-b*c", func(dst, a, b, c []float64, _ float64) { vsubMul(dst, a, b, c) },
			func(dst, a, b, c []float64, _ float64) { vmul(dst, b, c); vsub(dst, a, dst) }},
		{"b*c-a", func(dst, a, b, c []float64, _ float64) { vmulSub(dst, a, b, c) },
			func(dst, a, b, c []float64, _ float64) { vmul(dst, b, c); vsub(dst, dst, a) }},
		{"a+b*c", func(dst, a, b, c []float64, _ float64) { vaddMul(dst, a, b, c) },
			func(dst, a, b, c []float64, _ float64) { vmul(dst, b, c); vadd(dst, a, dst) }},
		{"a-b*imm", func(dst, a, b, _ []float64, imm float64) { vsubMulImm(dst, a, b, imm) },
			func(dst, a, b, _ []float64, imm float64) { vmulImm(dst, b, imm); vsub(dst, a, dst) }},
		{"b*imm-a", func(dst, a, b, _ []float64, imm float64) { vmulImmSub(dst, a, b, imm) },
			func(dst, a, b, _ []float64, imm float64) { vmulImm(dst, b, imm); vsub(dst, dst, a) }},
		{"a+b*imm", func(dst, a, b, _ []float64, imm float64) { vaddMulImm(dst, a, b, imm) },
			func(dst, a, b, _ []float64, imm float64) { vmulImm(dst, b, imm); vadd(dst, a, dst) }},
	}
	if up, down := mulAddValues[8], mulAddValues[9]; 1-float64(up*down) != 0 || math.FMA(-up, down, 1) == 0 {
		t.Fatal("the 1 ± 2⁻³⁰ pair no longer tells one rounding from two")
	}
	nv := len(mulAddValues)
	for _, bd := range bodies {
		for _, n := range []int{1, 3, 4, 7, 32} {
			// Lay the nv³ triples end to end and take them n at a time;
			// the last chunk wraps around.
			for start := 0; start < nv*nv*nv; start += n {
				a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
				for e := 0; e < n; e++ {
					k := (start + e) % (nv * nv * nv)
					a[e], b[e], c[e] = mulAddValues[k%nv], mulAddValues[k/nv%nv], mulAddValues[k/nv/nv]
				}
				imm := c[0] // the immediate forms multiply every element by one constant
				want := make([]float64, n)
				bd.two(want, a, b, c, imm)
				for alias := 0; alias < 4; alias++ {
					ops := [][]float64{append([]float64(nil), a...), append([]float64(nil), b...), append([]float64(nil), c...)}
					dst := make([]float64, n)
					if alias > 0 {
						dst = ops[alias-1]
					}
					bd.fused(dst, ops[0], ops[1], ops[2], imm)
					for e := range dst {
						if math.IsNaN(dst[e]) && math.IsNaN(want[e]) {
							continue
						}
						if math.Float64bits(dst[e]) != math.Float64bits(want[e]) {
							t.Fatalf("%s, n = %d, dst aliasing operand %d, element %d: a = %v b = %v c = %v imm = %v: fused %v (%#x), two instructions %v (%#x)",
								bd.name, n, alias, e, a[e], b[e], c[e], imm, dst[e], math.Float64bits(dst[e]), want[e], math.Float64bits(want[e]))
						}
					}
				}
			}
		}
	}
}

// TestFusedMulAddPeephole runs the peephole over hand-built tapes in the
// form it sees them: registers by number, a destination the very next
// definition of a register kills.
func TestFusedMulAddPeephole(t *testing.T) {
	mulTo := func(dst, a, b uint16) instr { return instr{op: opMul, dst: dst, a: a, b: b} }
	muliTo := func(dst, a uint16) instr { return instr{op: opMulImm, dst: dst, a: a, imm: 2} }
	binTo := func(o op, dst, a, b uint16) instr { return instr{op: o, dst: dst, a: a, b: b} }
	for _, c := range []struct {
		name string
		tape []instr
		want []instr
	}{
		{"a - b*c", []instr{mulTo(3, 1, 2), binTo(opSub, 3, 0, 3)},
			[]instr{{op: opSubMul, dst: 3, a: 0, b: 1, c: 2}}},
		{"b*c - a", []instr{mulTo(3, 1, 2), binTo(opSub, 0, 3, 0)},
			[]instr{{op: opMulSub, dst: 0, a: 0, b: 1, c: 2}}},
		{"b*c + a and a + b*c", []instr{mulTo(3, 1, 2), binTo(opAdd, 3, 3, 0), mulTo(4, 1, 2), binTo(opAdd, 4, 3, 4)},
			[]instr{{op: opAddMul, dst: 3, a: 0, b: 1, c: 2}, {op: opAddMul, dst: 4, a: 3, b: 1, c: 2}}},
		{"immediate forms", []instr{muliTo(1, 0), binTo(opSub, 1, 2, 1), muliTo(3, 0), binTo(opSub, 3, 3, 2), muliTo(4, 0), binTo(opAdd, 4, 2, 4)},
			[]instr{{op: opSubMulImm, dst: 1, a: 2, b: 0, imm: 2}, {op: opMulImmSub, dst: 3, a: 2, b: 0, imm: 2}, {op: opAddMulImm, dst: 4, a: 2, b: 0, imm: 2}}},
		{"product with a second reader", []instr{mulTo(3, 1, 2), binTo(opSub, 4, 0, 3), binTo(opAdd, 5, 4, 3)}, nil},
		{"product read by a later store", []instr{mulTo(3, 1, 2), binTo(opSub, 4, 0, 3), {op: opStore, a: 3, fld: 1}}, nil},
		{"product yielded", []instr{mulTo(3, 1, 2), binTo(opSub, 4, 0, 3), {op: opYield, a: 3}}, nil},
		{"product's register redefined before it is read again", []instr{mulTo(3, 1, 2), binTo(opSub, 4, 0, 3), {op: opConst, dst: 3}, binTo(opAdd, 5, 4, 3)},
			[]instr{{op: opSubMul, dst: 4, a: 0, b: 1, c: 2}, {op: opConst, dst: 3}, binTo(opAdd, 5, 4, 3)}},
		{"p + p", []instr{mulTo(3, 1, 2), binTo(opAdd, 4, 3, 3)}, nil},
		{"not adjacent", []instr{mulTo(3, 1, 2), {op: opNeg, dst: 4, a: 0}, binTo(opSub, 5, 4, 3)}, nil},
		{"a quotient is no product", []instr{binTo(opDiv, 3, 1, 2), binTo(opSub, 3, 0, 3)}, nil},
		{"a later fused instruction reads the register", []instr{mulTo(3, 1, 2), binTo(opSub, 4, 0, 3), mulTo(5, 1, 2), binTo(opAdd, 6, 3, 5)},
			[]instr{mulTo(3, 1, 2), binTo(opSub, 4, 0, 3), {op: opAddMul, dst: 6, a: 3, b: 1, c: 2}}},
	} {
		want := c.want
		if want == nil {
			want = append([]instr(nil), c.tape...)
		}
		got := fuseMulAdd(c.tape, nil)
		if len(got) != len(want) {
			t.Errorf("%s: %d instructions, want %d: %+v", c.name, len(got), len(want), got)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: instruction %d is %+v, want %+v", c.name, i, got[i], want[i])
			}
		}
	}
}

// TestFusedMulAddAliasing pins where the unit-step tape fuses a product into
// a result written in place over the destination's own span, and holds every
// shape to the closure oracle: a := a − a@north·b fuses (the north row lies
// a whole pitch from the span being written); a@west and a@nw do not (from
// the second group of four on, the fused body would read elements the first
// groups have just overwritten), and neither does a product a later
// statement reads again.
func TestFusedMulAddAliasing(t *testing.T) {
	at := func(name string, dist ...int) expr.Node { return expr.Ref(name).At(grid.Direction(dist)) }
	mul := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.Mul, L: l, R: r} }
	sub := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.Sub, L: l, R: r} }
	add := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.Add, L: l, R: r} }
	a, b := expr.Ref("a"), expr.Ref("b")
	rows := grid.MustRegion(grid.NewRange(1, 6), grid.NewRange(1, 40))
	bounds := grid.MustRegion(grid.NewRange(0, 7), grid.NewRange(0, 41))
	for _, c := range []struct {
		memopCase
		copying, unit int // multiply-then-adds on each tape
	}{
		{memopCase{name: "a := a - a@north*b", dsts: []string{"a"}, rhs: []expr.Node{sub(a, mul(at("a", -1, 0), b))}}, 1, 1},
		{memopCase{name: "a := a - a@south*b", dsts: []string{"a"}, rhs: []expr.Node{sub(a, mul(at("a", 1, 0), b))}}, 1, 1},
		{memopCase{name: "a := a - a@west*b", dsts: []string{"a"}, rhs: []expr.Node{sub(a, mul(at("a", 0, -1), b))}}, 1, 0},
		{memopCase{name: "a := a - a@east*b", dsts: []string{"a"}, rhs: []expr.Node{sub(a, mul(at("a", 0, 1), b))}}, 1, 0},
		{memopCase{name: "a := a - a@nw*b", dsts: []string{"a"}, rhs: []expr.Node{sub(a, mul(at("a", -1, -1), b))}}, 1, 0},
		{memopCase{name: "a := a - b*a@se", dsts: []string{"a"}, rhs: []expr.Node{sub(a, mul(b, at("a", 1, 1)))}}, 1, 0},
		{memopCase{name: "a := a@west*0.5 + a (immediate form)", dsts: []string{"a"}, rhs: []expr.Node{add(a, mul(at("a", 0, -1), expr.Const(0.5)))}}, 1, 0},
		{memopCase{name: "a := a*a - a (every operand the destination's own span)", dsts: []string{"a"}, rhs: []expr.Node{sub(mul(a, a), a)}}, 1, 1},
		{memopCase{name: "c := a - a@west*b (another field's span may be read shifted)", dsts: []string{"c"}, rhs: []expr.Node{sub(a, mul(at("a", 0, -1), b))}}, 1, 1},
		// The product is c's value: the second statement's difference reads
		// it, and so does the third statement, out of c's span.
		{memopCase{name: "product with two readers", dsts: []string{"c", "d", "a"},
			rhs: []expr.Node{mul(a, b), sub(b, expr.Ref("c")), add(expr.Ref("c"), at("b", -1, 0))}}, 0, 0},
	} {
		c.bounds, c.region, c.layouts, c.loop = bounds, rows, allLayouts(field.RowMajor), dep.Identity(2)
		pr := c.lower(t, exprgen.Env(bounds, c.layouts, 1))
		if f, u := mulAdds(pr.fused), mulAdds(pr.unit); f != c.copying || u != c.unit {
			t.Errorf("%s: %d multiply-then-adds on the copying tape and %d on the unit-step tape, want %d and %d",
				c.name, f, u, c.copying, c.unit)
		}
		if !c.check(t, 21) {
			t.Errorf("%s: row-major rows did not run unit-step", c.name)
		}
		c.loop.Dirs[0] = grid.HighToLow
		c.check(t, 22)
	}
}

// TestStoreForwardInPlace: a value a store forwards to later statements is
// written in place when its field is not stored again before they have all
// read it, and they read it back from the field. Tomcatv's r := aa·d'@north
// is the shape: the forward block's last copying store.
func TestStoreForwardInPlace(t *testing.T) {
	at := func(name string, dist ...int) expr.Node { return expr.Ref(name).At(grid.Direction(dist)) }
	mul := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.Mul, L: l, R: r} }
	add := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.Add, L: l, R: r} }
	a, b, cc, d := expr.Ref("a"), expr.Ref("b"), expr.Ref("c"), expr.Ref("d")
	rows := grid.MustRegion(grid.NewRange(1, 6), grid.NewRange(1, 40))
	bounds := grid.MustRegion(grid.NewRange(0, 7), grid.NewRange(0, 41))
	for _, c := range []struct {
		memopCase
		place, stored int
	}{
		{memopCase{name: "forwarded to two statements", dsts: []string{"a", "b", "c"},
			rhs: []expr.Node{mul(d, at("b", -1, 0)), add(a, d), mul(a, at("d", -1, 0))}}, 3, 0},
		{memopCase{name: "forwarded, then its field stored again", dsts: []string{"a", "b", "a", "c"},
			rhs: []expr.Node{mul(d, b), add(a, d), add(a, b), add(a, d)}}, 4, 0},
		{memopCase{name: "forwarded into a statement that overwrites it in place", dsts: []string{"a", "a"},
			rhs: []expr.Node{mul(d, b), add(a, at("a", 0, 1))}}, 1, 1},
		{memopCase{name: "forwarded value also read shifted (a fresh load after the store)", dsts: []string{"a", "b"},
			rhs: []expr.Node{mul(d, cc), add(a, at("a", 0, -1))}}, 2, 0},
	} {
		c.bounds, c.region, c.layouts, c.loop = bounds, rows, allLayouts(field.RowMajor), dep.Identity(2)
		pr := c.lower(t, exprgen.Env(bounds, c.layouts, 1))
		if _, place, stored := pr.FusedShape(); place != c.place || stored != c.stored {
			t.Errorf("%s: %d results in place and %d stored by copy, want %d and %d", c.name, place, stored, c.place, c.stored)
		}
		if !c.check(t, 31) {
			t.Errorf("%s: row-major rows did not run unit-step", c.name)
		}
		c.loop.Dirs[0] = grid.HighToLow
		c.check(t, 32)
	}
}

// TestLowerAllocsUnchanged: compiling a block allocates once per table,
// whatever its width — the program, its field table (sized by the
// references), the per-field int tables, the array both tapes share, the
// passes' scratch, the views and the span mask; LowerExpr has an Expr where
// Lower has the mask. Every row lowers in the same count, and the ceiling
// is that count. History of the Tomcatv forward block: 40 at 02cfdfe (the
// program, four field tables grown a field at a time, the lowerer's stream,
// fuse's and the compactor's tables, the two tapes and the offset tables);
// 38 once each field's strides and lows shared an allocation; 7 with every
// table sized once.
func TestLowerAllocsUnchanged(t *testing.T) {
	const ceiling = 7
	ref, at := expr.Ref, func(name string, d grid.Direction) expr.ArrayRef { return expr.Ref(name).At(d) }
	add := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.Add, L: l, R: r} }
	sub := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.Sub, L: l, R: r} }
	mul := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.Mul, L: l, R: r} }
	max2 := func(l, r expr.Node) expr.Node { return expr.Call{Fn: expr.Max, Args: []expr.Node{l, r}} }

	tom := tomcatvEnv(16)
	dsts, rhs, forwardUDVs := tomcatvForward(tom)
	forward := stmts(dsts, rhs)
	one := stmts([]string{"r"}, []expr.Node{mul(expr.Const(2), at("r", grid.North).Prime())})

	// Twelve arrays in one statement: the destination and eleven read, every
	// other one shifted.
	bounds := grid.Square(2, 0, 17)
	wideEnv := &expr.MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{}}
	var sum expr.Node
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("w%d", i)
		wideEnv.Arrays[name] = field.MustNew(name, bounds, field.RowMajor)
		var r expr.Node = ref(name)
		if i%2 == 0 {
			r = at(name, grid.North)
		}
		switch i {
		case 0:
		case 1:
			sum = r
		default:
			sum = add(sum, r)
		}
	}
	wide := stmts([]string{"w0"}, []expr.Node{sum})

	// Smith-Waterman's fill, the three-statement block that runs skewed.
	swEnv := &expr.MapEnv{Arrays: map[string]*field.Field{}, Scalars: map[string]float64{}}
	for _, name := range []string{"s", "e", "f", "match"} {
		swEnv.Arrays[name] = field.MustNew(name, bounds, field.RowMajor)
	}
	open, ext := expr.Const(2), expr.Const(0.5)
	fill := stmts([]string{"e", "f", "s"}, []expr.Node{
		max2(sub(at("s", grid.West).Prime(), open), sub(at("e", grid.West).Prime(), ext)),
		max2(sub(at("s", grid.North).Prime(), open), sub(at("f", grid.North).Prime(), ext)),
		max2(expr.Const(0), max2(add(at("s", grid.NW).Prime(), ref("match")), max2(ref("e"), ref("f")))),
	})
	operand := add(mul(ref("rx"), ref("rx")), mul(ref("ry"), ref("ry")))
	north, skewed := []dep.UDV{udv(1, 0)}, []dep.UDV{udv(0, 1), udv(1, 0), udv(1, 1)}

	for _, c := range []struct {
		name  string
		lower func() error
	}{
		{"one array", func() error {
			_, err := Lower(2, one, tom, north)
			return err
		}},
		{"Tomcatv forward: 6 arrays, 4 statements", func() error {
			_, err := Lower(2, forward, tom, forwardUDVs)
			return err
		}},
		{"12 arrays", func() error {
			_, err := Lower(2, wide, wideEnv, nil)
			return err
		}},
		{"Smith-Waterman fill, skewed", func() error {
			_, err := Lower(2, fill, swEnv, skewed)
			return err
		}},
		{"reduction operand", func() error {
			_, err := LowerExpr(2, operand, tom)
			return err
		}},
	} {
		var err error
		if got := testing.AllocsPerRun(50, func() { err = c.lower() }); got != ceiling {
			t.Errorf("%s: lowering allocates %v times, want %d", c.name, got, ceiling)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}
