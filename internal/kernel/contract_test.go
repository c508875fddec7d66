package kernel

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// contracted matches a single-rounding multiply-add in the Go assembler's
// listings for the architectures whose compilers contract x*y ± z when the
// source lets them: FMADDD/FMSUBD/FNMADDD/FNMSUBD on arm64 and riscv64,
// FMADD/FMSUB/FNMADD/FNMSUB on ppc64le, FMADD/FMSUB on s390x.
var contracted = regexp.MustCompile(`\bFN?M(ADD|SUB)D?\b`)

// TestNoContractedMultiplyAdd compiles this package for the architectures
// that have a fused multiply-add and reads the assembly: the tape's
// multiply-then-add bodies round the product before the sum (vec.go's
// float64 conversions), so not one such instruction may appear. amd64, where
// the other tests run, never contracts at the default GOAMD64 level; without
// this a dropped conversion would pass everything here and break
// bit-identity with the closure engine on the other machines.
func TestNoContractedMultiplyAdd(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	if testing.Short() {
		t.Skip("cross-compiles the package; skipped with -short")
	}
	for _, arch := range []string{"arm64", "riscv64", "ppc64le"} {
		cmd := exec.Command(goTool, "build", "-gcflags=-S", "-o", os.DevNull, ".")
		cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			// A toolchain without this port's standard library to hand (and
			// no way to fetch it) is not this package's failure.
			t.Logf("GOARCH=%s: cannot build here, skipped: %v\n%s", arch, err, firstLines(string(out), 5))
			continue
		}
		if !strings.Contains(string(out), "vsubMul") {
			t.Errorf("GOARCH=%s: the listing does not mention vsubMul; is -gcflags=-S still printing assembly?", arch)
			continue
		}
		var hits []string
		for _, line := range strings.Split(string(out), "\n") {
			if contracted.MatchString(line) {
				hits = append(hits, strings.TrimSpace(line))
			}
		}
		if len(hits) > 0 {
			t.Errorf("GOARCH=%s: %d contracted multiply-adds in internal/kernel, the first:\n%s", arch, len(hits), firstLines(strings.Join(hits, "\n"), 4))
		}
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
