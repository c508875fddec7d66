package trace

import (
	"fmt"
	"strings"
)

// Validate replays a trace and checks the wavefront schedule invariants
// (see Index.Check). It returns nil for a safe schedule, or an error
// listing up to maxViolations violations. Traces that dropped events
// cannot be checked; use ValidateRecorder to guard against truncation.
func Validate(events []Event) error {
	found := NewIndex(events, Layout{}, 0).Check()
	if len(found) == 0 {
		return nil
	}
	var sb strings.Builder
	for i, f := range found {
		if i == maxViolations {
			fmt.Fprintf(&sb, "\n  ... and %d more", len(found)-maxViolations)
			break
		}
		sb.WriteString("\n  " + f.Detail)
	}
	return fmt.Errorf("trace: schedule violates the wavefront invariant (%d violations):%s", len(found), sb.String())
}

// ValidateRecorder checks a recorder's trace, refusing truncated traces
// (ring wrap-around drops the oldest events, which would break pairing).
func ValidateRecorder(r *Recorder) error {
	if r == nil {
		return fmt.Errorf("trace: nothing recorded (tracing disabled)")
	}
	if n := r.Dropped(); n > 0 {
		return fmt.Errorf("trace: %d events dropped by ring wrap-around; raise the recorder capacity to validate", n)
	}
	return Validate(r.Events())
}

const maxViolations = 20
