// Package fault is the runtime's deterministic fault injector: a seeded,
// declarative plan of message and rank faults (delay, drop, duplicate, or
// corrupt a message by rank/peer/tag/occurrence; stall or crash a rank at
// the k-th send or receive) that the comm substrate consults on every
// operation behind a nil check, exactly as tracing is wired — the
// zero-fault path costs one pointer comparison.
//
// Determinism: the injector draws nothing at operation time. Corruption
// deltas are derived from Plan.Seed when the injector is built, and every
// rule keeps its own match counter, so a rule pinned to a concrete
// (Rank, Peer) pair fires at exactly the same operation on every run —
// each rank's own operation sequence is deterministic even though the
// ranks interleave freely. Rules using Any for Rank observe matches from
// all ranks and are therefore only deterministic up to goroutine
// interleaving; chaos tests pin their rules.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// Op is the operation class a rule matches.
type Op uint8

// Operation classes.
const (
	// OpSend matches point-to-point sends.
	OpSend Op = iota
	// OpRecv matches point-to-point receives.
	OpRecv
)

// String names the op.
func (o Op) String() string {
	if o == OpSend {
		return "send"
	}
	return "recv"
}

// Action is what a fired rule does to the matched operation.
type Action uint8

// Fault actions. Drop, Duplicate, and Corrupt are message faults and apply
// to sends only; Delay, Stall, and Crash apply to either side.
const (
	// ActNone is the zero action (invalid in a rule).
	ActNone Action = iota
	// ActDelay sleeps for Rule.Delay before the operation proceeds.
	ActDelay
	// ActDrop silently discards the sent message (the send "succeeds").
	ActDrop
	// ActDuplicate enqueues the sent message twice.
	ActDuplicate
	// ActCorrupt perturbs every payload element by the rule's delta.
	ActCorrupt
	// ActStall blocks the rank until the topology is canceled; a stalled
	// rank appears in the deadlock detector's wait-for graph.
	ActStall
	// ActCrash makes the operation return a CrashError, as if the rank
	// failed at that point.
	ActCrash
	numActions
)

var actionNames = [numActions]string{"none", "delay", "drop", "duplicate", "corrupt", "stall", "crash"}

// String names the action.
func (a Action) String() string {
	if int(a) < len(actionNames) {
		return actionNames[a]
	}
	return "unknown"
}

// Any is the wildcard for Rule.Rank, Rule.Peer, and Rule.Tag. It is far
// outside both the valid rank range and the tag space (collective tags are
// small negative integers).
const Any = -(1 << 30)

// Rule matches a class of operations and injects one action.
type Rule struct {
	// Op selects sends or receives.
	Op Op
	// Rank is the rank performing the operation (Any matches all).
	Rank int
	// Peer is the counterpart: destination for sends, source for receives
	// (Any matches all).
	Peer int
	// Tag is the message tag (Any matches all; collective tags are < 0).
	Tag int
	// After skips the first After matching operations before firing, so
	// After=k fires first on the (k+1)-th match (the paper-style "fault the
	// k-th message" knob, 0-based).
	After int
	// Times bounds how many matches fire after the After window: 0 means
	// once, n > 0 means n times, -1 means every subsequent match.
	Times int
	// Wave restricts the rule to one wave of the computation — one sweep of
	// a wavefront block through the ranks, what trace.Event.Wave numbers
	// from 0: a 1-based count of the sweeps the rank has entered, matched
	// against the value the runtime registers with SetWave at the start of
	// each sweep and keeps until the next (so halo exchanges and
	// reductions after a sweep still carry its number), 0 matching every
	// wave (the default). Combined with Rank, this is the deterministic
	// "crash rank R in sweep N" knob the session recovery tests are built on
	// — occurrence counting (After) alone cannot pin a fault to a sweep when
	// earlier sweeps' message counts vary. A one-block run is a single wave;
	// pin a tile inside it by Tag (boundary message t carries tag t) or
	// After.
	Wave int
	// Action is the injected fault.
	Action Action
	// Delay is the injected latency for ActDelay.
	Delay time.Duration
	// Corrupt is the per-element perturbation for ActCorrupt; 0 derives a
	// large deterministic delta from the plan seed.
	Corrupt float64
}

func (r Rule) String() string {
	s := fmt.Sprintf("%s %s rank=%s peer=%s tag=%s after=%d times=%d",
		r.Action, r.Op, wild(r.Rank), wild(r.Peer), wild(r.Tag), r.After, r.Times)
	if r.Wave != 0 {
		s += fmt.Sprintf(" wave=%d", r.Wave)
	}
	return s
}

func wild(v int) string {
	if v == Any {
		return "*"
	}
	return fmt.Sprintf("%d", v)
}

// Plan is a declarative fault schedule: a seed plus an ordered rule list.
// The first firing rule wins when several match the same operation.
type Plan struct {
	Seed  int64
	Rules []Rule
}

// ErrInjected marks errors manufactured by ActCrash; match with errors.Is.
var ErrInjected = errors.New("fault: injected crash")

// CrashError is the structured error an ActCrash rule returns.
type CrashError struct {
	Op         Op
	Rank, Peer int
	Tag        int
	Rule       int // index into the plan's rule list
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("fault: injected crash: rank %d %s peer %d tag %d (rule %d)",
		e.Rank, e.Op, e.Peer, e.Tag, e.Rule)
}

// Is reports ErrInjected so errors.Is(err, fault.ErrInjected) matches.
func (e *CrashError) Is(target error) bool { return target == ErrInjected }

// Outcome is the injector's verdict for one operation.
type Outcome struct {
	// Action is the injected fault (never ActNone when fired).
	Action Action
	// Delay is the injected latency (ActDelay).
	Delay time.Duration
	// Data is the corrupted payload copy (ActCorrupt); the original is
	// untouched.
	Data []float64
	// Rule is the index of the plan rule that fired.
	Rule int
}

// ruleState pairs a rule with its match accounting.
type ruleState struct {
	Rule
	delta float64 // corruption delta (resolved at New)
	seen  int     // matching operations observed
	fired int     // times the action was injected
}

// Injector evaluates a compiled plan. All methods are safe for concurrent
// use by the rank goroutines; a nil *Injector never fires.
type Injector struct {
	mu    sync.Mutex
	rules []ruleState
	fired int64
	// waves[r] is rank r's current wave as registered by SetWave (1-based;
	// 0 while unregistered), grown lazily.
	waves []int
}

// New validates and compiles a plan. Message faults (drop, duplicate,
// corrupt) are send-side only; ActDelay requires a positive Delay.
func New(p Plan) (*Injector, error) {
	in := &Injector{rules: make([]ruleState, 0, len(p.Rules))}
	rng := rand.New(rand.NewSource(p.Seed))
	for i, r := range p.Rules {
		switch r.Action {
		case ActDelay:
			if r.Delay <= 0 {
				return nil, fmt.Errorf("fault: rule %d: delay action needs a positive Delay", i)
			}
		case ActDrop, ActDuplicate, ActCorrupt:
			if r.Op != OpSend {
				return nil, fmt.Errorf("fault: rule %d: %s is a message fault and applies to sends only", i, r.Action)
			}
		case ActStall, ActCrash:
		default:
			return nil, fmt.Errorf("fault: rule %d: missing or unknown action", i)
		}
		if r.After < 0 {
			return nil, fmt.Errorf("fault: rule %d: negative After", i)
		}
		if r.Times < -1 {
			return nil, fmt.Errorf("fault: rule %d: Times must be >= -1", i)
		}
		if r.Wave < 0 {
			return nil, fmt.Errorf("fault: rule %d: Wave must be >= 0 (1-based; 0 matches every wave)", i)
		}
		st := ruleState{Rule: r, delta: r.Corrupt}
		if r.Action == ActCorrupt && st.delta == 0 {
			// Large enough that any downstream read of a corrupted element
			// visibly perturbs the result; seeded so reruns corrupt
			// identically.
			st.delta = 1e6 * (1 + rng.Float64())
		}
		in.rules = append(in.rules, st)
	}
	return in, nil
}

// MustNew is New for plans known to be valid (tests, benchmarks).
func MustNew(p Plan) *Injector {
	in, err := New(p)
	if err != nil {
		panic(err)
	}
	return in
}

// Enabled reports whether the injector can fire (false for nil).
func (in *Injector) Enabled() bool { return in != nil }

// SetWave registers rank's current wave (1-based) for Wave-pinned rules.
// The runtime calls it as each rank enters a wavefront sweep; a nil
// injector ignores it.
// Operations performed before any SetWave carry wave 0 and only match
// rules with Wave == 0 (the any-wave wildcard).
func (in *Injector) SetWave(rank, wave int) {
	if in == nil {
		return
	}
	in.mu.Lock()
	for rank >= len(in.waves) {
		in.waves = append(in.waves, 0)
	}
	in.waves[rank] = wave
	in.mu.Unlock()
}

// OnSend consults the plan for a send from rank to peer under tag carrying
// data. It reports the fired outcome, or ok=false for a clean send.
func (in *Injector) OnSend(rank, peer, tag int, data []float64) (Outcome, bool) {
	return in.onOp(OpSend, rank, peer, tag, data)
}

// OnRecv consults the plan for a receive at rank from peer under tag.
func (in *Injector) OnRecv(rank, peer, tag int) (Outcome, bool) {
	return in.onOp(OpRecv, rank, peer, tag, nil)
}

func (in *Injector) onOp(op Op, rank, peer, tag int, data []float64) (Outcome, bool) {
	if in == nil {
		return Outcome{}, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var out Outcome
	fired := false
	for i := range in.rules {
		r := &in.rules[i]
		if r.Op != op ||
			(r.Rank != Any && r.Rank != rank) ||
			(r.Peer != Any && r.Peer != peer) ||
			(r.Tag != Any && r.Tag != tag) {
			continue
		}
		if r.Wave != 0 {
			// A wave pin is part of the match, not the firing condition:
			// operations outside the wave don't advance the After counter.
			wave := 0
			if rank < len(in.waves) {
				wave = in.waves[rank]
			}
			if wave != r.Wave {
				continue
			}
		}
		r.seen++
		if fired || r.seen <= r.After {
			continue
		}
		limit := r.Times
		if limit == 0 {
			limit = 1
		}
		if limit > 0 && r.fired >= limit {
			continue
		}
		r.fired++
		in.fired++
		fired = true
		out = Outcome{Action: r.Action, Delay: r.Delay, Rule: i}
		if r.Action == ActCorrupt {
			out.Data = make([]float64, len(data))
			for j, v := range data {
				out.Data[j] = v + r.delta
			}
		}
	}
	return out, fired
}

// Crash builds the structured error for a fired ActCrash outcome.
func (in *Injector) Crash(out Outcome, op Op, rank, peer, tag int) error {
	return &CrashError{Op: op, Rank: rank, Peer: peer, Tag: tag, Rule: out.Rule}
}

// Fired returns how many operations had a fault injected so far.
func (in *Injector) Fired() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

// String summarizes per-rule accounting, for diagnostics and -chaos output.
func (in *Injector) String() string {
	if in == nil {
		return "fault: disabled"
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "fault: %d injections", in.fired)
	for i := range in.rules {
		r := &in.rules[i]
		fmt.Fprintf(&b, "\n  rule %d: %s — seen %d, fired %d", i, r.Rule.String(), r.seen, r.fired)
	}
	return b.String()
}
