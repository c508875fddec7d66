package main

import (
	"flag"
	"os"
	"testing"
)

// TestMainAnalyzeAndRun drives the checker end to end on a repo testdata
// program: analysis report, then serial and pipelined execution (the same
// program the golden tests diff, so output correctness is covered there —
// this drill covers the CLI plumbing).
func TestMainAnalyzeAndRun(t *testing.T) {
	oldArgs := os.Args
	defer func() { os.Args = oldArgs }()
	for _, args := range [][]string{
		{"zplwc", "../../testdata/sw.zpl"},
		{"zplwc", "-run", "../../testdata/sw.zpl"},
		{"zplwc", "-run", "-p", "2", "-b", "4", "-colmajor", "../../testdata/sw.zpl"},
	} {
		flag.CommandLine = flag.NewFlagSet("zplwc", flag.ExitOnError)
		os.Args = args
		main()
	}
}
