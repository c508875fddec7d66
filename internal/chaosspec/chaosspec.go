// Package chaosspec is the single source of truth for the chaos scenarios:
// the seeded fault schedules wavebench -chaos injects into the Tomcatv
// forward wavefront and the repo's failure-drill tests replay. Keeping the
// rule tables here means the CLI demonstration and the test battery can
// never drift apart on what, say, "recover-multi" means.
package chaosspec

import (
	"fmt"

	"wavefront/internal/fault"
)

// Modes lists the chaos scenarios in canonical run order.
var Modes = []string{"drop", "corrupt", "stall", "crash", "delay", "backpressure", "recover", "recover-multi"}

// Recovery reports whether mode exercises checkpoint-restart (and so needs
// a Checkpoint config and a metrics registry for its assertions).
func Recovery(mode string) bool {
	return mode == "recover" || mode == "recover-multi"
}

// Clean reports whether mode's run must complete without error (delay and
// backpressure perturb timing only; corrupt perturbs data but not control
// flow).
func Clean(mode string) bool {
	switch mode {
	case "corrupt", "delay", "backpressure", "recover", "recover-multi":
		return true
	}
	return false
}

// Rules returns mode's fault schedule. Pipeline boundary messages flow
// rank r → r+1 (the forward wavefront travels north to south) with tags
// equal to tile indices under either scheduler, so rules pinned to a link
// and a tag deterministically hit one tile's boundary traffic. The one-block
// run is a single wave, so nothing here pins by Wave. backpressure returns
// no rules: it is the bounded -link-cap run with no injector at all.
func Rules(mode string) ([]fault.Rule, error) {
	switch mode {
	case "drop":
		return []fault.Rule{{Op: fault.OpSend, Rank: 0, Peer: 1,
			Tag: fault.Any, After: 1, Times: -1, Action: fault.ActDrop}}, nil
	case "corrupt":
		return []fault.Rule{{Op: fault.OpSend, Rank: 0, Peer: 1,
			Tag: fault.Any, After: 1, Action: fault.ActCorrupt}}, nil
	case "stall":
		return []fault.Rule{{Op: fault.OpRecv, Rank: 1, Peer: 0,
			Tag: fault.Any, After: 1, Action: fault.ActStall}}, nil
	case "crash":
		return []fault.Rule{{Op: fault.OpSend, Rank: 0, Peer: 1,
			Tag: fault.Any, After: 2, Action: fault.ActCrash}}, nil
	case "delay":
		return []fault.Rule{{Op: fault.OpSend, Rank: 0, Peer: 1,
			Tag: fault.Any, Times: 3, Action: fault.ActDelay, Delay: 1e6}}, nil // 1ms
	case "backpressure":
		return nil, nil
	case "recover":
		// Crash rank 1 on its third boundary receive and demand
		// checkpoint-restart recovery: under the static schedule that is the
		// top of tile 2, inside the sweep (with a snapshot every 2 cut points
		// the restart resumes there); under the task DAG it is inside the
		// receive phase, and the restart re-runs the sweep from its start.
		return []fault.Rule{{Op: fault.OpRecv, Rank: 1, Peer: 0,
			Tag: 2, Action: fault.ActCrash}}, nil
	case "recover-multi":
		// Two ranks crash at different points; each restarts from its own
		// snapshot and the run still completes bit-identical.
		return []fault.Rule{
			{Op: fault.OpRecv, Rank: 1, Peer: 0, Tag: 1, Action: fault.ActCrash},
			{Op: fault.OpRecv, Rank: 2, Peer: 1, Tag: 2, Action: fault.ActCrash},
		}, nil
	}
	return nil, fmt.Errorf("chaosspec: unknown mode %q (want one of %v)", mode, Modes)
}
