package zpl

import (
	"fmt"

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
			return walk(t.Body, &reg)
		case *BeginStmt:
			for _, sub := range t.Body {
				if err := walk(sub, region); err != nil {
					return err
				}
			}
			return nil
		case *ForStmt:
			from, err := it.evalInt(t.From, t.Pos)
			if err != nil {
				return err
			}
			saved, had := it.env.Scalars[t.Var]
			wasVar := it.scalarVars[t.Var]
			it.scalarVars[t.Var] = true
			it.env.Scalars[t.Var] = float64(from)
			defer func() {
				if had {
					it.env.Scalars[t.Var] = saved
				} else {
					delete(it.env.Scalars, t.Var)
				}
				it.scalarVars[t.Var] = wasVar
			}()
			for _, sub := range t.Body {
				if err := walk(sub, region); err != nil {
					return err
				}
			}
			return nil
		case *ScanStmt:
			if region == nil {
				return errf(t.Pos, "scan block needs a covering region")
			}
			reports = append(reports, it.report(t, t.Pos, scan.ScanKind, *region))
			return nil
		case *AssignStmt:
			if t.Reduce != "" || it.env.Arrays[t.Name] == nil {
				return nil // scalar assignment or reduction: nothing to analyze
			}
			if region == nil {
				return errf(t.Pos, "array assignment to %q needs a covering region", t.Name)
			}
			reports = append(reports, it.report(t, t.Pos, scan.PlainKind, *region))
			return nil
		case *IfStmt:
			for _, sub := range t.Then {
				if err := walk(sub, region); err != nil {
					return err
				}
			}
			for _, sub := range t.Else {
				if err := walk(sub, region); err != nil {
					return err
				}
			}
			return nil
		case *RepeatStmt:
			for _, sub := range t.Body {
				if err := walk(sub, region); err != nil {
					return err
				}
			}
			return nil
		case *WritelnStmt:
			return nil
		}
		return fmt.Errorf("zpl: unknown statement %T", s)
	}
	for _, s := range prog.Stmts {
		if err := walk(s, nil); err != nil {
			return reports, err
		}
	}
	return reports, nil
}
