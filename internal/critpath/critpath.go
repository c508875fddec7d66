// Package critpath reconstructs the cross-rank causal event graph of a
// traced wavefront run and answers the question the drift monitor cannot:
// *which* chain of tiles, messages, and waits actually determined the
// wall-clock time, and where the slack went.
//
// The graph is trace.Index — the same structure the schedule validator
// checks, built by the same constructor — with three edge families, all
// recovered from the trace rings alone (no extra runtime instrumentation):
//
//   - ring edges: events on one ring are recorded at span end by a single
//     goroutine, so record order is end-time order — each event's
//     predecessor on its own ring happened-before it;
//   - message edges: a receive and the send it was matched with, first in
//     first out per (src, dst, wave, seq) for boundary messages and per
//     (src, dst, tag) otherwise — the receive cannot end before the
//     matched send began;
//   - dependence edges: a KindTaskTile's KindTaskDep markers name the
//     predecessor tiles the task-DAG scheduler claims were complete.
//
// The critical path is the longest chain under those constraints, found
// by walking backward from the last event to finish: at each node the
// binding predecessor is the candidate (ring, message, or dependence)
// with the latest end time. A forward sweep over the path then attributes
// every nanosecond between the path's first start and last end to exactly
// one of compute / comm / wait / other, using a moving cursor so nested
// spans (a KindWaveRecv wrapping the KindRecv recorded just before it)
// are never double-counted.
//
// Analyze also reports the run-level envelope (fill / steady / drain and
// per-ring busy / comm / wait) from the classification trace.Summarize
// uses (trace.RingClass), so the report reconciles against the trace
// summary by construction, and its Violations are the validator's findings
// (trace.Index.Check) over the same index: a trace ValidateTrace refuses is
// one whose report carries violations, and the other way round.
package critpath

import (
	"fmt"
	"sort"

	"wavefront/internal/metrics"
	"wavefront/internal/trace"
)

// ReportVersion stamps Report and the bundle that embeds it.
const ReportVersion = 1

// maxSteps bounds the per-step detail retained in a Report; the
// aggregate attribution always covers the whole path.
const maxSteps = 1024

// Options tunes Analyze.
type Options struct {
	// Procs is the logical rank count. Rings beyond it are task-DAG worker
	// rings; 0 means every ring is a rank.
	Procs int
	// Workers is the per-rank worker count when the trace has worker rings
	// (ring p*(1+w)... mapping); 0 infers it from the ring count.
	Workers int
	// Dropped is the recorder's drop count. A trace with drops (or with
	// fault/cancel/restore events) is disrupted: unmatched receives are
	// expected there and not reported as violations.
	Dropped int64
	// Tolerant makes Analyze return the report with Violations recorded
	// instead of an error (the flight recorder analyzes broken runs).
	Tolerant bool
	// Metrics, when set, supplies the Eq (1) model gauges for the
	// predicted-vs-observed comparison.
	Metrics *metrics.Registry
}

// Step is one node of the critical path.
type Step struct {
	Kind    string `json:"kind"`
	Ring    int    `json:"ring"`
	Rank    int    `json:"rank"`
	Peer    int    `json:"peer"`
	Wave    int    `json:"wave"`
	Tile    int    `json:"tile"`
	Seq     int    `json:"seq"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// OnPathNs is this step's clipped contribution (overlap with earlier
	// path steps removed); WaitBeforeNs is the idle gap the path spent
	// before this step began.
	OnPathNs     int64 `json:"on_path_ns"`
	WaitBeforeNs int64 `json:"wait_before_ns"`
	// Edge names the constraint that bound this step to its successor:
	// "ring", "msg", "dep", or "end" for the final step.
	Edge string `json:"edge"`
}

// RingShare is one ring's share of the critical path.
type RingShare struct {
	Ring int   `json:"ring"`
	Rank int   `json:"rank"`
	Ns   int64 `json:"ns"`
}

// WaveSlack aggregates the slack of one wave's boundary edges: how long
// each matched message sat delivered-but-unconsumed (recv start minus
// send end, floored at zero).
type WaveSlack struct {
	Wave    int     `json:"wave"`
	Edges   int     `json:"edges"`
	MinNs   int64   `json:"min_ns"`
	MeanNs  float64 `json:"mean_ns"`
	MaxNs   int64   `json:"max_ns"`
	TotalNs int64   `json:"total_ns"`
}

// Violation is one broken invariant of the schedule: a trace.Finding, with
// its kinds ("unmatched-send", "unmatched-recv", "causality", "wavefront",
// "task").
type Violation struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// ModelComparison carries the Eq (1) drift gauges alongside the measured
// path, so a report shows predicted-vs-observed in one place.
type ModelComparison struct {
	PredictedOptNs    float64 `json:"predicted_opt_ns"`
	PredictedActualNs float64 `json:"predicted_actual_ns"`
	ObservedNs        float64 `json:"observed_ns"`
	DriftRatio        float64 `json:"drift_ratio"`
	OptimalBlock      float64 `json:"optimal_block"`
	Samples           float64 `json:"samples"`
}

// Report is the analyzer's result: the run envelope (trace.RingClass, as
// in trace.Summarize), the critical path and its attribution, per-wave
// slack, and any causal violations.
type Report struct {
	Version int   `json:"version"`
	Rings   int   `json:"rings"`
	Ranks   int   `json:"ranks"`
	Events  int   `json:"events"`
	Dropped int64 `json:"dropped"`

	// Run envelope, as in trace.Summarize: WallNs spans first start to
	// last end; fill/steady/drain come from the per-ring compute envelopes
	// (fill + steady + drain == last compute end - first compute start).
	WallNs   int64 `json:"wall_ns"`
	FillNs   int64 `json:"fill_ns"`
	SteadyNs int64 `json:"steady_ns"`
	DrainNs  int64 `json:"drain_ns"`

	// Whole-run totals summed over every ring's trace.RingClass (busy =
	// compute spans, comm = data movement minus blocked time, wait =
	// blocked receives/sends plus barriers).
	TotalBusyNs int64 `json:"total_busy_ns"`
	TotalCommNs int64 `json:"total_comm_ns"`
	TotalWaitNs int64 `json:"total_wait_ns"`

	// The critical path. PathComputeNs + PathCommNs + PathWaitNs +
	// PathOtherNs == PathEndNs - PathStartNs exactly; PathFill/Steady/Drain
	// split the same interval by the envelope's phase boundaries.
	PathStartNs   int64   `json:"path_start_ns"`
	PathEndNs     int64   `json:"path_end_ns"`
	PathLen       int     `json:"path_len"`
	PathComputeNs int64   `json:"path_compute_ns"`
	PathCommNs    int64   `json:"path_comm_ns"`
	PathWaitNs    int64   `json:"path_wait_ns"`
	PathOtherNs   int64   `json:"path_other_ns"`
	PathFillNs    int64   `json:"path_fill_ns"`
	PathSteadyNs  int64   `json:"path_steady_ns"`
	PathDrainNs   int64   `json:"path_drain_ns"`
	Coverage      float64 `json:"coverage"` // (PathEnd-PathStart)/Wall

	ByRing []RingShare `json:"by_ring"`
	Slack  []WaveSlack `json:"slack,omitempty"`
	// SlackHistNs buckets every edge's slack by log2(ns): bucket i counts
	// slacks in [2^i, 2^(i+1)) ns, bucket 0 also holds zero slack.
	SlackHistNs []int64 `json:"slack_hist_ns,omitempty"`

	Steps          []Step `json:"steps,omitempty"`
	StepsTruncated bool   `json:"steps_truncated,omitempty"`

	Model      *ModelComparison `json:"model,omitempty"`
	Violations []Violation      `json:"violations,omitempty"`

	// Phase boundaries in epoch ns (maxFirst / minLast of the compute
	// envelopes), kept for the path's phase split; not serialized.
	fillEndNs   int64
	steadyEndNs int64
}

// ordLess is the strict total order the backward walk descends: end time,
// then (ring, pos). Every predecessor edge points ordLess-downward, which
// bounds the walk by the event count.
func ordLess(a, b *trace.Node) bool {
	if a.Ev.End != b.Ev.End {
		return a.Ev.End < b.Ev.End
	}
	if a.Ring != b.Ring {
		return a.Ring < b.Ring
	}
	return a.Pos < b.Pos
}

// Analyze builds the causal index from a completed run's events (as
// returned by trace.Recorder.Events: ring by ring, record order within a
// ring) and returns the critical-path report. It returns an error — with
// the report still populated — when the schedule breaks an invariant,
// unless opts.Tolerant is set.
func Analyze(events []trace.Event, opts Options) (*Report, error) {
	rep := &Report{Version: ReportVersion, Events: len(events), Dropped: opts.Dropped}
	if len(events) == 0 {
		return rep, nil
	}
	ix := trace.NewIndex(events, trace.Layout{Procs: opts.Procs, Workers: opts.Workers}, opts.Dropped)
	rings := ix.Rings
	rep.Rings, rep.Ranks = len(rings), ix.Procs
	for _, f := range ix.Check() {
		rep.Violations = append(rep.Violations, Violation(f))
	}

	rep.fillEnvelope(rings)

	// Backward walk from the last event to finish.
	var end *trace.Node
	for _, ring := range rings {
		for _, n := range ring {
			if end == nil || ordLess(end, n) {
				end = n
			}
		}
	}
	path := []*trace.Node{end}
	edgeKinds := []string{"end"}
	for cur := end; ; {
		var best *trace.Node
		bestEdge := ""
		consider := func(c *trace.Node, kind string) {
			if c == nil || !ordLess(c, cur) {
				return
			}
			if best == nil || c.Ev.End > best.Ev.End {
				best, bestEdge = c, kind
			}
		}
		if cur.Pos > 0 {
			consider(rings[cur.Ring][cur.Pos-1], "ring")
		}
		consider(cur.Msg, "msg")
		for _, d := range cur.Deps {
			consider(d, "dep")
		}
		if best == nil {
			break
		}
		path = append(path, best)
		edgeKinds = append(edgeKinds, bestEdge)
		cur = best
	}
	// Reverse into execution order; edgeKinds[i] names the constraint from
	// step i to step i+1 after the flip below.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
		edgeKinds[i], edgeKinds[j] = edgeKinds[j], edgeKinds[i]
	}

	rep.attribute(path, edgeKinds, ix.Layout)
	rep.slackStats(ix.WaveEdges)

	if opts.Metrics != nil {
		m := ModelComparison{
			PredictedOptNs:    opts.Metrics.Gauge(metrics.ModelPredictedNs).Value(),
			PredictedActualNs: opts.Metrics.Gauge(metrics.ModelPredActualNs).Value(),
			ObservedNs:        opts.Metrics.Gauge(metrics.ModelObservedNs).Value(),
			DriftRatio:        opts.Metrics.Gauge(metrics.ModelDrift).Value(),
			OptimalBlock:      opts.Metrics.Gauge(metrics.ModelOptBlock).Value(),
			Samples:           opts.Metrics.Gauge(metrics.ModelSamples).Value(),
		}
		if m.ObservedNs != 0 || m.PredictedOptNs != 0 {
			rep.Model = &m
		}
	}

	if len(rep.Violations) > 0 && !opts.Tolerant {
		return rep, fmt.Errorf("critpath: %d violation(s), first: %s: %s",
			len(rep.Violations), rep.Violations[0].Kind, rep.Violations[0].Detail)
	}
	return rep, nil
}

// fillEnvelope computes WallNs, the fill/steady/drain phase split, and the
// run totals from the trace package's one ring classification — the same
// one trace.Summarize reports, so the two reconcile by construction.
func (rep *Report) fillEnvelope(rings [][]*trace.Node) {
	env := trace.NewEnvelope()
	for _, ring := range rings {
		c := trace.NewRingClass()
		for _, n := range ring {
			c.Add(&n.Ev)
		}
		c.Close()
		env.Add(&c)
		rep.TotalBusyNs += int64(c.Busy)
		rep.TotalCommNs += int64(c.Comm)
		rep.TotalWaitNs += int64(c.Wait)
	}
	rep.WallNs = int64(env.Wall())
	rep.FillNs, rep.DrainNs = int64(env.Fill()), int64(env.Drain())
	if env.Computing == 0 {
		return
	}
	rep.fillEndNs, rep.steadyEndNs = env.FillEnd, env.SteadyEnd
	if rep.steadyEndNs < rep.fillEndNs {
		// No steady overlap: the drain begins where the fill ends, so
		// the phase boundaries still partition the timeline.
		rep.steadyEndNs = rep.fillEndNs
	}
	rep.SteadyNs = rep.steadyEndNs - rep.fillEndNs
}

// attribute sweeps the path forward with a moving cursor, charging every
// instant of [path start, path end] to exactly one class.
func (rep *Report) attribute(path []*trace.Node, edgeKinds []string, layout trace.Layout) {
	if len(path) == 0 {
		return
	}
	rep.PathLen = len(path)
	rep.PathStartNs = path[0].Ev.Start
	rep.PathEndNs = path[len(path)-1].Ev.End
	byRing := map[int]int64{}
	cursor := rep.PathStartNs
	for i, n := range path {
		s, e := n.Ev.Start, n.Ev.End
		var gap int64
		if s > cursor {
			gap = s - cursor
			rep.PathWaitNs += gap
			byRing[n.Ring] += gap
			cursor = s
		}
		var on int64
		if e > cursor {
			on = e - cursor
			switch class, _ := trace.ClassOf(n.Ev.Kind); class {
			case trace.ClassBusy:
				rep.PathComputeNs += on
			case trace.ClassComm:
				// The blocked prefix of the span is wait, the rest is data
				// movement.
				w := min(max(s+n.Ev.Blocked-cursor, 0), on)
				rep.PathWaitNs += w
				rep.PathCommNs += on - w
			case trace.ClassWait:
				rep.PathWaitNs += on
			default:
				rep.PathOtherNs += on
			}
			byRing[n.Ring] += on
			cursor = e
		}
		if len(rep.Steps) < maxSteps {
			rep.Steps = append(rep.Steps, Step{
				Kind: n.Ev.Kind.String(), Ring: n.Ring, Rank: layout.RankOf(n.Ring),
				Peer: n.Ev.Peer, Wave: n.Ev.Wave, Tile: n.Ev.Tile, Seq: n.Ev.Seq,
				StartNs: s, EndNs: e, OnPathNs: on, WaitBeforeNs: gap,
				Edge: edgeKinds[i],
			})
		} else {
			rep.StepsTruncated = true
		}
	}
	// Phase split of the path interval against the envelope boundaries.
	clip := func(lo, hi int64) int64 {
		if lo < rep.PathStartNs {
			lo = rep.PathStartNs
		}
		if hi > rep.PathEndNs {
			hi = rep.PathEndNs
		}
		if hi > lo {
			return hi - lo
		}
		return 0
	}
	rep.PathFillNs = clip(rep.PathStartNs, rep.fillEndNs)
	rep.PathSteadyNs = clip(rep.fillEndNs, rep.steadyEndNs)
	rep.PathDrainNs = clip(rep.steadyEndNs, rep.PathEndNs)
	if rep.WallNs > 0 {
		rep.Coverage = float64(rep.PathEndNs-rep.PathStartNs) / float64(rep.WallNs)
	}
	rings := make([]int, 0, len(byRing))
	for r := range byRing {
		rings = append(rings, r)
	}
	sort.Ints(rings)
	for _, r := range rings {
		rep.ByRing = append(rep.ByRing, RingShare{Ring: r, Rank: layout.RankOf(r), Ns: byRing[r]})
	}
}

// slackStats aggregates matched boundary edges (receives with Msg set) per
// wave step (Seq) and into the log2 histogram.
func (rep *Report) slackStats(edges []*trace.Node) {
	if len(edges) == 0 {
		return
	}
	perWave := map[int]*WaveSlack{}
	hist := make([]int64, 32)
	for _, e := range edges {
		slack := max(e.Ev.Start-e.Msg.Ev.End, 0)
		w := e.Msg.Ev.Seq
		ws := perWave[w]
		if ws == nil {
			ws = &WaveSlack{Wave: w, MinNs: slack, MaxNs: slack}
			perWave[w] = ws
		}
		ws.Edges++
		ws.TotalNs += slack
		if slack < ws.MinNs {
			ws.MinNs = slack
		}
		if slack > ws.MaxNs {
			ws.MaxNs = slack
		}
		b := 0
		for v := slack; v > 1 && b < len(hist)-1; v >>= 1 {
			b++
		}
		hist[b]++
	}
	waves := make([]int, 0, len(perWave))
	for w := range perWave {
		waves = append(waves, w)
	}
	sort.Ints(waves)
	for _, w := range waves {
		ws := perWave[w]
		ws.MeanNs = float64(ws.TotalNs) / float64(ws.Edges)
		rep.Slack = append(rep.Slack, *ws)
	}
	// Trim empty high buckets.
	top := len(hist)
	for top > 1 && hist[top-1] == 0 {
		top--
	}
	rep.SlackHistNs = hist[:top]
}
