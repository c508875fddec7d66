// Package scan implements the paper's language extension at the IR level:
// array statements, scan blocks, the prime operator, the statically checked
// legality conditions of §2.2, dependence analysis via unconstrained
// distance vectors, and derived-loop-order serial execution.
//
// A Block is a region-covered sequence of array statements. With Kind
// ScanKind the block is the paper's scan block: its statements are fused
// into a single loop nest within which primed references observe values
// written by any statement of the block in earlier iterations. With Kind
// PlainKind the statements execute one at a time with ordinary array
// semantics (right-hand side fully evaluated before assignment).
package scan

import (
	"errors"
	"fmt"
	"strings"

	"wavefront/internal/dep"
	"wavefront/internal/expr"
	"wavefront/internal/grid"
	"wavefront/internal/wsv"
)

// Kind distinguishes scan blocks from plain statement sequences.
type Kind int8

const (
	// PlainKind executes statements one at a time with RHS-before-LHS
	// array semantics.
	PlainKind Kind = iota
	// ScanKind fuses the statements into one loop nest and gives primed
	// references wavefront semantics.
	ScanKind
)

func (k Kind) String() string {
	if k == ScanKind {
		return "scan"
	}
	return "plain"
}

// Stmt is one array assignment: LHS := RHS. The left-hand side must be an
// unshifted, unprimed array reference. It is the type the kernel lowerer
// reads, so a block's statements lower as they stand.
type Stmt = expr.Assign

// Block is a region-covered group of statements.
type Block struct {
	Kind   Kind
	Region grid.Region
	Stmts  []Stmt
	// Label names the block in diagnostics; optional.
	Label string
}

// NewScan builds a scan block.
func NewScan(region grid.Region, stmts ...Stmt) *Block {
	return &Block{Kind: ScanKind, Region: region, Stmts: stmts}
}

// NewPlain builds an ordinary statement group.
func NewPlain(region grid.Region, stmts ...Stmt) *Block {
	return &Block{Kind: PlainKind, Region: region, Stmts: stmts}
}

func (b *Block) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s", b.Region, b.Kind)
	if b.Kind == ScanKind {
		sb.WriteString(" begin\n")
	} else {
		sb.WriteString(" begin\n")
	}
	for _, s := range b.Stmts {
		fmt.Fprintf(&sb, "  %s\n", s)
	}
	sb.WriteString("end;")
	return sb.String()
}

// Writers maps each array name to the statement indices that assign it.
func (b *Block) Writers() map[string][]int {
	w := map[string][]int{}
	for i, s := range b.Stmts {
		w[s.LHS.Name] = append(w[s.LHS.Name], i)
	}
	return w
}

// LegalityError describes a violation of the statically checked conditions
// of §2.2, identifying which condition failed.
type LegalityError struct {
	// Condition is the paper's roman-numeral condition: 1 through 5, or 0
	// for structural errors outside the paper's list (e.g. a shifted LHS).
	Condition int
	Msg       string
}

func (e *LegalityError) Error() string {
	if e.Condition == 0 {
		return "scan: " + e.Msg
	}
	return fmt.Sprintf("scan: legality condition (%s): %s", roman(e.Condition), e.Msg)
}

func roman(n int) string {
	switch n {
	case 1:
		return "i"
	case 2:
		return "ii"
	case 3:
		return "iii"
	case 4:
		return "iv"
	case 5:
		return "v"
	}
	return fmt.Sprint(n)
}

// ErrOverconstrained wraps dep.OverconstrainedError as legality condition
// (ii) for callers that match with errors.Is.
var ErrOverconstrained = errors.New("scan: over-constrained wavefront")

// Analysis is the result of analyzing a block: the programmer-facing WSV
// calculus plus the compiler-facing dependence summary and loop structure.
type Analysis struct {
	// PrimedDirs collects the directions on primed references (the WSV's
	// inputs), including the zero direction for unshifted primes.
	PrimedDirs []grid.Direction
	// WSV is the wavefront summary vector of PrimedDirs.
	WSV wsv.Vector
	// Class applies the three-case rule of §2.2 to WSV.
	Class wsv.Classification
	// UDVs are all dependence distance vectors constraining the loop nest.
	UDVs []dep.UDV
	// Loop is a legal loop structure satisfying UDVs.
	Loop dep.LoopSpec

	// needsTemp records that in-place execution is impossible for a plain
	// block and the executor must materialize the RHS into a temporary.
	needsTemp bool
	// refs is what the statements name, from the walk the analysis made.
	refs stmtRefs
}

// Refs returns statement i's array references in visit order, as
// expr.Refs(b.Stmts[i].RHS) would: the walk Analyze made, for its callers.
func (a *Analysis) Refs(i int) []expr.ArrayRef { return a.refs.of(i) }

// Scalars returns every scalar name the statements reference, once each.
func (a *Analysis) Scalars() []string { return a.refs.scalars }

// WavefrontDims returns the pipelined (wavefront) dimensions.
func (a *Analysis) WavefrontDims() []int { return a.Class.WavefrontDims() }

// Analyze checks the block's static legality and derives its loop structure.
// The preference biases the loop search (e.g. to put a contiguous dimension
// innermost). Its zero value is not dep.Derive's default: it tries every
// dimension high-to-low first. Execution derives with preferLow.
func Analyze(b *Block, pref dep.Preference) (*Analysis, error) {
	return analyze(b, refsOf(b.Stmts), pref)
}

// preferLow is dep.Derive's preference — identity order, low-to-high first —
// and the one every executor, the pipeline and the reports derive with.
var preferLow = dep.Preference{PreferLow: true}

// stmtRefs is what the right-hand sides of a statement list name, from one
// walk of each tree: the array references flattened in visit order —
// statement i's are all[off[i]:off[i+1]] — and the distinct scalar names.
// The bounds check, the dependence walk and the kernel build all read the
// references, so a block is walked once for the three.
type stmtRefs struct {
	all     []expr.ArrayRef
	off     []int
	scalars []string
}

// refsOf walks the right-hand sides twice: the first walk counts the
// references, so the list is allocated once.
func refsOf(stmts []Stmt) stmtRefs {
	n := 0
	count := func(m expr.Node) {
		if _, ok := m.(expr.ArrayRef); ok {
			n++
		}
	}
	for _, s := range stmts {
		expr.Walk(s.RHS, count)
	}
	r := stmtRefs{all: make([]expr.ArrayRef, 0, n), off: make([]int, len(stmts)+1)}
	visit := func(n expr.Node) {
		switch t := n.(type) {
		case expr.ArrayRef:
			r.all = append(r.all, t)
		case expr.Scalar:
			for _, have := range r.scalars {
				if have == string(t) {
					return
				}
			}
			r.scalars = append(r.scalars, string(t))
		}
	}
	for i, s := range stmts {
		expr.Walk(s.RHS, visit)
		r.off[i+1] = len(r.all)
	}
	return r
}

// of returns statement i's references.
func (r stmtRefs) of(i int) []expr.ArrayRef { return r.all[r.off[i]:r.off[i+1]] }

// slice returns the references of statements lo..hi-1 as their own list.
func (r stmtRefs) slice(lo, hi int) stmtRefs {
	return stmtRefs{all: r.all, off: r.off[lo : hi+1], scalars: r.scalars}
}

// analyze is Analyze given the block's references.
func analyze(b *Block, refs stmtRefs, pref dep.Preference) (*Analysis, error) {
	if len(b.Stmts) == 0 {
		return nil, &LegalityError{Msg: "empty block"}
	}
	rank := b.Region.Rank()
	if rank == 0 {
		return nil, &LegalityError{Msg: "rank-0 region"}
	}
	udvs, primed, err := collectDeps(b, refs)
	if err != nil {
		return nil, err
	}

	w, err := wsv.New(rank, primed)
	if err != nil {
		return nil, err
	}
	an := &Analysis{
		PrimedDirs: primed,
		WSV:        w,
		Class:      wsv.Classify(w),
		UDVs:       udvs,
		refs:       refs,
	}
	loop, err := dep.DerivePreferred(rank, udvs, pref)
	if err != nil {
		var oc *dep.OverconstrainedError
		if errors.As(err, &oc) {
			if b.Kind == ScanKind || len(primed) > 0 {
				// Primed references demand loop-carried true dependences; a
				// temporary cannot honor them, so over-constraint is an
				// error whether or not the statement sits in a scan block.
				return nil, fmt.Errorf("%w: legality condition (ii): %v (WSV %v)", ErrOverconstrained, oc, w)
			}
			// A plain statement whose anti-dependences over-constrain the
			// in-place nest is still legal; the executor materializes the
			// right-hand side into a temporary. Mark the loop identity.
			an.Loop = dep.Identity(rank)
			an.needsTemp = true
			return an, nil
		}
		return nil, err
	}
	an.Loop = loop
	return an, nil
}

// collectDeps walks the block's statements, checking per-statement legality
// (unprimed unshifted left-hand sides, well-formed shifts) and collecting
// the dependence distance vectors plus the primed directions feeding the
// WSV. It is the front half of Analyze, shared with the kernel lowering so
// span legality comes from the same UDVs the loop derivation uses.
//
// A first pass counts the UDVs and the primed references, so the UDV list,
// every UDV's distance and the primed list are allocated once each. A
// primed direction is the reference's own shift (trees are immutable), or
// one shared zero direction for an unshifted reference.
func collectDeps(b *Block, refs stmtRefs) (udvs []dep.UDV, primed []grid.Direction, err error) {
	rank := b.Region.Rank()
	nu, np := 0, 0
	for si := range b.Stmts {
		for _, r := range refs.of(si) {
			earlier, laterOrSame := writtenAround(b.Stmts, r.Name, si)
			switch {
			case r.Primed:
				nu++
				np++
			case earlier && laterOrSame:
				nu += 2
			case earlier || laterOrSame:
				nu++
			}
		}
	}
	var dists []int // the shared zero direction, then one distance per UDV
	if nu > 0 {
		dists = make([]int, (nu+1)*rank)
		udvs = make([]dep.UDV, 0, nu)
	}
	dist := func() grid.Direction {
		d := grid.Direction(dists[:rank:rank])
		dists = dists[rank:]
		return d
	}
	var zero grid.Direction
	if np > 0 {
		zero = dist()
		primed = make([]grid.Direction, 0, np)
	}
	for si, s := range b.Stmts {
		if s.LHS.Primed {
			return nil, nil, &LegalityError{Msg: fmt.Sprintf("statement %d: primed left-hand side %s", si, s.LHS)}
		}
		if s.LHS.Shifted() {
			return nil, nil, &LegalityError{Msg: fmt.Sprintf("statement %d: shifted left-hand side %s", si, s.LHS)}
		}
		if err := expr.Validate(s.RHS, rank, nil); err != nil {
			return nil, nil, &LegalityError{Condition: 3, Msg: fmt.Sprintf("statement %d: %v", si, err)}
		}
		for _, r := range refs.of(si) {
			d := r.Shift
			if d == nil {
				d = zero
			}
			earlier, laterOrSame := writtenAround(b.Stmts, r.Name, si)
			written := earlier || laterOrSame
			if r.Primed {
				if b.Kind != ScanKind && r.Name != s.LHS.Name {
					return nil, nil, &LegalityError{Condition: 1, Msg: fmt.Sprintf(
						"statement %d: primed reference %s outside a scan block may only name the statement's own target %q", si, r, s.LHS.Name)}
				}
				if !written {
					return nil, nil, &LegalityError{Condition: 1, Msg: fmt.Sprintf(
						"statement %d: primed array %q is not defined in the block", si, r.Name)}
				}
				primed = append(primed, d)
				udvs = append(udvs, dep.FromPrimed(dist(), d, r.Name, si))
				continue
			}
			// Reads of arrays defined outside the block are free. A
			// non-primed reference to an array written in the block must see
			// values of lexically preceding statements and pre-block values
			// with respect to the current and later ones.
			if earlier {
				udvs = append(udvs, dep.FromUnprimed(dist(), d, true, r.Name, si))
			}
			if laterOrSame {
				udvs = append(udvs, dep.FromUnprimed(dist(), d, false, r.Name, si))
			}
		}
	}
	return udvs, primed, nil
}

// writtenAround reports whether a statement before statement si assigns
// name, and whether si or one after it does.
func writtenAround(stmts []Stmt, name string, si int) (earlier, laterOrSame bool) {
	for w, s := range stmts {
		if s.LHS.Name != name {
			continue
		}
		if w < si {
			earlier = true
		} else {
			laterOrSame = true
		}
	}
	return earlier, laterOrSame
}

// needsTemp (on Analysis) records that in-place execution is impossible for
// a plain block and a temporary must be used.
func (a *Analysis) NeedsTemp() bool { return a.needsTemp }

// String renders the analysis for diagnostics and the zplwc tool.
func (a *Analysis) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "WSV %v (simple=%v, case %d)\n", a.WSV, a.WSV.Simple(), a.Class.Case)
	for i, r := range a.Class.Roles {
		fmt.Fprintf(&sb, "  dim %d: %s\n", i, r)
	}
	fmt.Fprintf(&sb, "loop: %s", a.Loop)
	if a.needsTemp {
		sb.WriteString(" (via temporary)")
	}
	return sb.String()
}
