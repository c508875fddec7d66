package comm

import (
	"runtime"
	"sync"
	"time"
)

// spinBudget is how long a blocked rank keeps re-checking its condition
// before it parks. Waking a parked goroutine costs 100–140 µs on a shared
// host (futex plus a descheduled vCPU) against ≈ 1 µs for a hand-off
// between two running ones, and the tiles a late wake-up delays are a few
// microseconds each. The sweep in EXPERIMENTS.md ("Ranks wait awake") has
// the one-shot workload's whole gain by 50 µs and most of a warm session's
// by 100; beyond that the budget is paid by waits that end in a park
// anyway. A constant, not a setting: no workload needs another value.
const spinBudget = 100 * time.Microsecond

// spinWait is one turn of the bounded yield-spin every wait in this package
// starts with: it releases mu, yields the processor — with more ranks than
// Ps a runnable rank gets this one, with one P the peer being waited for
// does — retakes mu, and reports whether the wait that began at t0 is still
// inside spinBudget. The caller re-checks its own condition under mu
// between turns and parks on its sync.Cond once spinWait says no:
//
//	for blocked() && spinWait(&mu, t0) {
//	}
//	for blocked() {
//		cond.Wait()
//	}
//
// It allocates nothing, so the steady state stays at zero allocations.
func spinWait(mu *sync.Mutex, t0 time.Time) bool {
	mu.Unlock()
	runtime.Gosched()
	mu.Lock()
	return time.Since(t0) < spinBudget
}

// spins reports whether link waits yield-spin before parking: only on the
// in-process transport. A socket link's wake-up comes from the netpoller,
// which a P kept busy by a spinning goroutine never polls.
func (t *topology) spins() bool {
	_, inProcess := t.tp.(chanTransport)
	return inProcess
}
