package comm

import (
	"sync"
	"time"
)

// SyncBarrier is a reusable n-participant barrier for the runtime's own
// phase synchronization (scatter→compute→gather). Unlike Endpoint.Barrier
// it moves no messages and therefore does not appear in communication
// statistics: it models the boundary between the program's serial and
// parallel sections, not data movement the paper's model charges for.
type SyncBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	gen     int
}

// NewSyncBarrier creates a barrier for n participants.
func NewSyncBarrier(n int) *SyncBarrier {
	b := &SyncBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all n participants have called Wait, then releases
// them together. The barrier is reusable. Like every wait in this package
// it yield-spins for spinBudget before parking: the ranks of a run arrive
// within microseconds of each other far more often than not.
func (b *SyncBarrier) Wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	t0 := time.Now()
	for gen == b.gen && spinWait(&b.mu, t0) {
	}
	for gen == b.gen {
		b.cond.Wait()
	}
}
