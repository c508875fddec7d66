package wavefront_test

// Golden tests for every program in testdata: the serial interpreter's
// writeln output is pinned byte for byte, and the parallel interpreter must
// reproduce it exactly for 1 and 3 ranks. illegal.zpl's diagnostic is
// pinned the same way so the rejection message stays stable. Regenerate
// with:
//
//	go test -run TestZPLGolden -update

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"wavefront"
	"wavefront/internal/scan"
	"wavefront/internal/trace"
	"wavefront/internal/zpl"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files in testdata/golden")

var goldenPrograms = []string{"fig3", "heat", "multioct", "sw", "sweep", "tomcatv"}

// serialOnlyPrograms use loop-variable region bounds, which parallel mode
// rejects (regions must be static); their goldens pin the serial
// interpreter only.
var serialOnlyPrograms = []string{"lu"}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- want ---\n%s--- got ---\n%s", path, want, got)
	}
}

func TestZPLGoldenSerial(t *testing.T) {
	for _, name := range append(append([]string(nil), goldenPrograms...), serialOnlyPrograms...) {
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", name+".zpl"))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if _, err := wavefront.RunZPL(string(src), &out); err != nil {
				t.Fatalf("serial run failed: %v", err)
			}
			checkGolden(t, name+".out", out.Bytes())
		})
	}
}

func TestZPLGoldenParallel(t *testing.T) {
	for _, name := range goldenPrograms {
		src, err := os.ReadFile(filepath.Join("testdata", name+".zpl"))
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 3} {
			t.Run(name+"/p"+string(rune('0'+procs)), func(t *testing.T) {
				var out bytes.Buffer
				rec := trace.New(procs, trace.DefaultCapacity)
				if _, err := zpl.RunParallelSource(string(src),
					zpl.Options{Out: &out, Exec: scan.ExecOptions{Trace: rec}}, procs, 4); err != nil {
					t.Fatalf("parallel run (p=%d) failed: %v", procs, err)
				}
				// Parallel execution must print exactly what serial printed.
				checkGolden(t, name+".out", out.Bytes())
				// And the recorded schedule must satisfy the wavefront safety
				// invariant: no tile computed before its upstream boundary.
				if err := trace.ValidateRecorder(rec); err != nil {
					t.Errorf("parallel run (p=%d) recorded an unsafe schedule: %v", procs, err)
				}
			})
		}
	}
}

func TestZPLGoldenIllegal(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "illegal.zpl"))
	if err != nil {
		t.Fatal(err)
	}
	_, serr := wavefront.RunZPL(string(src), nil)
	if serr == nil {
		t.Fatal("serial run of illegal.zpl must fail")
	}
	checkGolden(t, "illegal.serial.err", []byte(serr.Error()+"\n"))
	for _, procs := range []int{1, 3} {
		_, perr := wavefront.RunZPLParallel(string(src), nil, procs, 0)
		if perr == nil {
			t.Fatalf("parallel run (p=%d) of illegal.zpl must fail", procs)
		}
		checkGolden(t, "illegal.parallel.err", []byte(perr.Error()+"\n"))
	}
}
