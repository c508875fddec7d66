package scan

import (
	"fmt"

	"wavefront/internal/expr"
	"wavefront/internal/grid"
)

// ExecGroup executes several mutually independent blocks as one scheduling
// unit. Under SchedStatic (or when any block is plain) the blocks simply run
// in order — independence makes the order irrelevant. Under SchedTaskDAG the
// scan blocks' tile DAGs merge onto one worker pool (taskdag.NewMulti),
// so counter-propagating wavefronts keep every worker busy through each
// other's ramp-up and ramp-down phases; the graph and its pool live for the
// call.
//
// Independence is validated at array granularity: no two blocks may write
// the same array, and no block may read an array another block writes. A
// violating group returns an error before anything executes.
func ExecGroup(blocks []*Block, env expr.Env, opt ExecOptions) error {
	if len(blocks) == 0 {
		return nil
	}
	if len(blocks) == 1 {
		return Exec(blocks[0], env, opt)
	}
	if err := CheckGroupIndependent(blocks); err != nil {
		return err
	}
	merged := opt.Scheduler == SchedTaskDAG
	for _, b := range blocks {
		if b.Kind != ScanKind {
			merged = false
		}
	}
	if !merged {
		// Static schedule: scan blocks sharing one region fuse into a
		// single block — one tape pass over the region, statements
		// concatenated, shared read-only operands loaded once — when one
		// loop nest satisfies the union of their dependences. The blocks
		// are independent (validated above), so any execution interleaving
		// is bit-identical; fusion only changes dispatch and load traffic.
		// Counter-propagating groups (e.g. opposing sweep octants) fail
		// the merged derivation and simply run in sequence.
		if fb := fuseGroup(blocks, opt); fb != nil {
			return Exec(fb, env, opt)
		}
		for _, b := range blocks {
			if err := Exec(b, env, opt); err != nil {
				return err
			}
		}
		return nil
	}

	parts := make([]*part, len(blocks))
	regions := make([]grid.Region, len(blocks))
	elems := 0
	for i, b := range blocks {
		p, err := Prepare(b, env, opt)
		if err != nil {
			return err
		}
		parts[i], regions[i] = &p.parts[0], b.Region
		elems += b.Region.Size() * len(b.Stmts)
	}
	tg, err := newTaskGraph(parts, regions, nil)
	if err != nil {
		return err
	}
	defer tg.Close()
	tg.runSpan(&opt, elems)
	return nil
}

// fuseGroup merges an all-scan group over one shared region into a single
// scan block when the union of the blocks' dependences still derives a
// legal loop nest; it returns nil (no fusion) otherwise. Merging the
// statement lists merges exactly the per-block UDV sets: independence
// guarantees no block writes an array another block touches, so no new
// cross-block dependences arise, and reads of shared read-only arrays
// carry no UDVs.
func fuseGroup(blocks []*Block, opt ExecOptions) *Block {
	if opt.Scheduler != SchedStatic {
		return nil
	}
	first := blocks[0]
	n := 0
	for _, b := range blocks {
		if b.Kind != ScanKind || !b.Region.Equal(first.Region) {
			return nil
		}
		n += len(b.Stmts)
	}
	stmts := make([]Stmt, 0, n)
	for _, b := range blocks {
		stmts = append(stmts, b.Stmts...)
	}
	fb := &Block{Kind: ScanKind, Region: first.Region, Stmts: stmts}
	if _, err := Analyze(fb, preferLow); err != nil {
		return nil
	}
	return fb
}

// CheckGroupIndependent verifies that the blocks commute: write sets are
// pairwise disjoint and no block reads an array another block writes, at
// array-name granularity.
func CheckGroupIndependent(blocks []*Block) error {
	writes := make([]map[string]bool, len(blocks))
	reads := make([]map[string]bool, len(blocks))
	for i, b := range blocks {
		writes[i] = map[string]bool{}
		reads[i] = map[string]bool{}
		for _, s := range b.Stmts {
			writes[i][s.LHS.Name] = true
			for _, r := range expr.Refs(s.RHS) {
				reads[i][r.Name] = true
			}
		}
	}
	for i := range blocks {
		for j := range blocks {
			if i == j {
				continue
			}
			for name := range writes[i] {
				if writes[j][name] && j > i {
					return fmt.Errorf("scan: group blocks %d and %d both write %q", i, j, name)
				}
				if reads[j][name] {
					return fmt.Errorf("scan: group block %d reads %q which block %d writes", j, name, i)
				}
			}
		}
	}
	return nil
}
