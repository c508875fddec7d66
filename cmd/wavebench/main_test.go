package main

// In-package drills for the wavebench entry points. Each mode function is
// exercised the way CI invokes the binary (validate matrix, chaos sweep,
// traced run with critical path, live loop), so the command
// paths stay under the coverage floor instead of counting as dead weight.

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"wavefront"
)

// TestRunValidateQuick runs the full differential matrix (all workload
// families, serial tape/closure/scalar, p=1/2/4 across every scheduler leg) at a
// small size. Any oracle mismatch makes runValidate return errCheckFailed.
func TestRunValidateQuick(t *testing.T) {
	if err := runValidate(16, 4); err != nil {
		t.Fatalf("validate matrix failed: %v", err)
	}
}

// TestRunChaosAll sweeps every chaos scenario with post-mortem bundles on,
// mirroring the CI soak invocation, under both schedulers.
func TestRunChaosAll(t *testing.T) {
	for _, sched := range []struct {
		name    string
		sched   wavefront.Scheduler
		workers int
	}{
		{"static", wavefront.SchedStatic, 0},
		{"taskdag", wavefront.SchedTaskDAG, 2},
	} {
		t.Run(sched.name, func(t *testing.T) {
			err := runChaos("all", 4, 8, 64, 0, 1, sched.sched, sched.workers,
				wavefront.TransportConfig{}, t.TempDir())
			if err != nil {
				t.Fatalf("chaos sweep failed: %v", err)
			}
		})
	}
}

func TestRunChaosUnknownMode(t *testing.T) {
	err := runChaos("meteor", 4, 8, 32, 0, 1, wavefront.SchedStatic, 0,
		wavefront.TransportConfig{}, "")
	if !errors.Is(err, errCheckFailed) {
		t.Fatalf("want errCheckFailed for an unknown mode, got: %v", err)
	}
}

// TestRunTraced records a pipelined run, validates the schedule, writes the
// Chrome trace JSON, runs the critical-path decomposition, and arms the
// flight recorder — the full -trace -postmortem path.
func TestRunTraced(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "trace.json")
	if err := runTraced(out, 4, 8, 32, 2, wavefront.SchedStatic, 0, dir); err != nil {
		t.Fatalf("traced run failed: %v", err)
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file not written: %v", err)
	}
}

// TestRunLive loops the workload for a short bounded duration in a serving
// session with the flight recorder on.
func TestRunLive(t *testing.T) {
	err := runLive("127.0.0.1:0", 2, 8, 24, 300*time.Millisecond,
		wavefront.SchedStatic, 0, t.TempDir())
	if err != nil {
		t.Fatalf("live loop failed: %v", err)
	}
}

// TestEveryFlagIsInREADME walks the registered flags and fails on any that
// README.md never writes as `-name`: a flag nobody documented is a flag
// nobody can find, and the next candidate for deletion.
func TestEveryFlagIsInREADME(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	flag.CommandLine.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") {
			return
		}
		count++
		if !regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(f.Name) + `\b`).Match(readme) {
			t.Errorf("README.md never mentions -%s", f.Name)
		}
	})
	if count == 0 || count > 17 {
		t.Errorf("wavebench registers %d flags, want 1..17", count)
	}
}
