package zpl

import (
	"wavefront/internal/dep"
	"wavefront/internal/grid"
	"wavefront/internal/scan"
)

// BlockReport is the static analysis of one scan block or array statement,
// as printed by the zplwc tool: the block's source-level shape, its WSV
// calculus, and the derived loop structure.
type BlockReport struct {
	Pos      Pos
	Kind     scan.Kind
	Region   grid.Region
	Block    *scan.Block
	Analysis *scan.Analysis
	// Err is set when the block fails a legality condition; the report
	// still carries the block for context.
	Err error
}

// report lowers one array assignment or scan block and analyzes it; a
// block that does not lower or fails a legality condition is reported, not
// returned.
func (it *Interp) report(s Stmt, pos Pos, kind scan.Kind, region grid.Region) BlockReport {
	rep := BlockReport{Pos: pos, Kind: kind, Region: region}
	rep.Block, rep.Err = it.lowerBlock(s, region, nil)
	if rep.Err == errScanBody {
		rep.Err = errf(pos, "scan blocks may contain only array assignments")
	}
	if rep.Err == nil {
		rep.Analysis, rep.Err = scan.Analyze(rep.Block, dep.Preference{PreferLow: true})
	}
	return rep
}

// eachChild calls fn on every statement nested directly in s, in source
// order, stopping at the first error. The walks that do not execute — the
// analysis below, the parallel collector, containsArrayWork — handle the
// statements they act on and come here for the rest.
func eachChild(s Stmt, fn func(Stmt) error) error {
	var lists [2][]Stmt
	switch t := s.(type) {
	case *RegionStmt:
		return fn(t.Body)
	case *BeginStmt:
		lists[0] = t.Body
	case *ForStmt:
		lists[0] = t.Body
	case *IfStmt:
		lists[0], lists[1] = t.Then, t.Else
	case *RepeatStmt:
		lists[0] = t.Body
	}
	for _, l := range lists {
		for _, sub := range l {
			if err := fn(sub); err != nil {
				return err
			}
		}
	}
	return nil
}

// Analyze executes the program's declarations and then statically analyzes
// every scan block and array statement without executing any of them. Loop
// bodies are analyzed once, with the loop variable bound to its initial
// value (block shapes are loop-invariant in the supported subset).
func (it *Interp) Analyze(prog *Program) ([]BlockReport, error) {
	for _, d := range prog.Decls {
		if err := it.declare(d); err != nil {
			return nil, err
		}
	}
	var reports []BlockReport
	var walk func(s Stmt, region *grid.Region) error
	walk = func(s Stmt, region *grid.Region) error {
		switch t := s.(type) {
		case *RegionStmt:
			reg, err := it.resolveRegion(t)
			if err != nil {
				return err
			}
			region = &reg
		case *ForStmt:
			from, err := it.evalInt(t.From, t.Pos, it)
			if err != nil {
				return err
			}
			defer it.leaveLoop(t.Var, it.enterLoop(t.Var))
			it.env.Scalars[t.Var] = float64(from)
		case *ScanStmt:
			if region == nil {
				return errf(t.Pos, "scan block needs a covering region")
			}
			reports = append(reports, it.report(t, t.Pos, scan.ScanKind, *region))
		case *AssignStmt:
			if t.Reduce != "" || it.env.Arrays[t.Name] == nil {
				return nil // scalar assignment or reduction: nothing to analyze
			}
			if region == nil {
				return errf(t.Pos, "array assignment to %q needs a covering region", t.Name)
			}
			reports = append(reports, it.report(t, t.Pos, scan.PlainKind, *region))
		}
		return eachChild(s, func(sub Stmt) error { return walk(sub, region) })
	}
	for _, s := range prog.Stmts {
		if err := walk(s, nil); err != nil {
			return reports, err
		}
	}
	return reports, nil
}
