// Zplwc is the ZPL wavefront checker and runner: it parses a mini-ZPL
// source file, reports the static analysis of every scan block and array
// statement (wavefront summary vector, legality, per-dimension roles,
// derived loop structure), and optionally executes the program.
//
// Usage:
//
//	zplwc program.zpl             # analyze
//	zplwc -run program.zpl        # analyze, then execute (writeln to stdout)
//	zplwc -run -p 4 -b 8 pgm.zpl  # execute across 4 ranks, tile width 8
//	zplwc -colmajor program.zpl   # Fortran storage order
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"wavefront/internal/field"
	"wavefront/internal/scan"
	"wavefront/internal/zpl"
)

func main() {
	var (
		run      = flag.Bool("run", false, "execute the program after analysis")
		colmajor = flag.Bool("colmajor", false, "column-major array storage")
		procs    = flag.Int("p", 1, "ranks for parallel execution (with -run)")
		block    = flag.Int("b", 0, "pipeline tile width (0 = naive; with -p)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: zplwc [-run] [-p N] [-b W] [-colmajor] program.zpl")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	layout := field.RowMajor
	if *colmajor {
		layout = field.ColMajor
	}
	prog, err := zpl.Parse(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	it := zpl.New(zpl.Options{Layout: layout})
	reports, err := it.Analyze(prog)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bad := false
	for _, rep := range reports {
		fmt.Printf("%s %s block over %v\n", rep.Pos, rep.Kind, rep.Region)
		if rep.Block != nil {
			for _, s := range rep.Block.Stmts {
				fmt.Printf("    %s\n", s)
			}
		}
		if rep.Err != nil {
			fmt.Printf("  ILLEGAL: %v\n", rep.Err)
			bad = true
			continue
		}
		fmt.Printf("  %s\n", strings.ReplaceAll(rep.Analysis.String(), "\n", "\n  "))
	}
	if bad {
		os.Exit(1)
	}
	if !*run {
		return
	}
	fmt.Println("--- run ---")
	fresh := zpl.New(zpl.Options{Out: os.Stdout, Layout: layout, Exec: scan.ExecOptions{}})
	if *procs > 1 {
		err = fresh.RunParallel(prog, *procs, *block)
	} else {
		err = fresh.Run(prog)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
