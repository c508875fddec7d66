//go:build race

package taskdag

// raceEnabled mirrors the stdlib pattern: allocation-count assertions are
// skipped under the race detector, whose instrumentation allocates.
const raceEnabled = true
