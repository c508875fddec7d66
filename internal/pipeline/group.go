package pipeline

import "wavefront/internal/scan"

// ExecGroup runs several mutually independent blocks as one unit: it checks
// the independence (scan.CheckGroupIndependent) and then executes the
// blocks back to back, each its own checkpoint operation and compute span.
// Independence is what the grouping buys — successive sweeps overlap across
// ranks, because a downstream rank starts the next block's wave while
// upstream ranks finish the previous one, with no barrier in between. No
// session merges the blocks' tile graphs onto one pool; the serial executor
// does (scan.ExecGroup under SchedTaskDAG).
func (r *Rank) ExecGroup(blocks []*scan.Block) error {
	if len(blocks) > 1 {
		if err := scan.CheckGroupIndependent(blocks); err != nil {
			return err
		}
	}
	for _, b := range blocks {
		if err := r.Exec(b); err != nil {
			return err
		}
	}
	return nil
}
