package chaosspec

import (
	"testing"

	"wavefront/internal/fault"
)

// TestRulesEveryMode walks the canonical mode list: every listed mode must
// compile, recovery modes must crash a rank (that is what forces the
// restart) without pinning a wave (a one-block run has only one), and
// backpressure is the one injector-free run.
func TestRulesEveryMode(t *testing.T) {
	for _, mode := range Modes {
		rules, err := Rules(mode)
		if err != nil {
			t.Fatalf("mode %q: %v", mode, err)
		}
		if mode == "backpressure" {
			if len(rules) != 0 {
				t.Fatalf("backpressure must run without an injector, got %d rules", len(rules))
			}
			continue
		}
		if len(rules) == 0 {
			t.Fatalf("mode %q: no rules", mode)
		}
		// Every schedule must compile into a valid fault plan.
		if _, err := fault.New(fault.Plan{Rules: rules}); err != nil {
			t.Fatalf("mode %q: plan does not compile: %v", mode, err)
		}
		for _, r := range rules {
			if r.Wave != 0 {
				t.Errorf("mode %q: rule %v pins a wave; a one-block run is a single wave", mode, r)
			}
		}
		if Recovery(mode) {
			crashes := 0
			for _, r := range rules {
				if r.Action == fault.ActCrash {
					crashes++
				}
			}
			if crashes != len(rules) {
				t.Fatalf("mode %q: recovery schedules must be all-crash, got %d/%d", mode, crashes, len(rules))
			}
			want := 1
			if mode == "recover-multi" {
				want = 2
			}
			if crashes != want {
				t.Fatalf("mode %q: want %d crash rules, got %d", mode, want, crashes)
			}
		}
	}
}

func TestRulesUnknownMode(t *testing.T) {
	if _, err := Rules("supernova"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestModeClassification pins the Recovery/Clean truth tables the CLI and
// the drill tests both branch on.
func TestModeClassification(t *testing.T) {
	recovery := map[string]bool{"recover": true, "recover-multi": true}
	clean := map[string]bool{
		"corrupt": true, "delay": true, "backpressure": true,
		"recover": true, "recover-multi": true,
	}
	for _, mode := range Modes {
		if got := Recovery(mode); got != recovery[mode] {
			t.Errorf("Recovery(%q) = %v, want %v", mode, got, recovery[mode])
		}
		if got := Clean(mode); got != clean[mode] {
			t.Errorf("Clean(%q) = %v, want %v", mode, got, clean[mode])
		}
	}
	// Every recovery mode must also be clean: a recovered run completes.
	for mode := range recovery {
		if !Clean(mode) {
			t.Errorf("recovery mode %q is not classified clean", mode)
		}
	}
}
