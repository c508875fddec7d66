// Package machine simulates a distributed-memory multiprocessor under the
// linear communication cost model of §4: transmitting a message of n
// elements costs α + β·n, and computing one data-space element costs
// ElemCost (the paper normalizes all times to ElemCost = 1).
//
// The simulator executes task DAGs: each task runs on one processor, tasks
// on a processor run in submission order, and a cross-processor dependence
// edge carrying elements is a message charged at the model cost. Completion
// time of the DAG is the longest path through this system, exactly the
// quantity the paper's T_comp/T_comm analysis bounds. The DAGs it costs are
// the runtime's own static schedules (pipeline.Program.Schedule). The paper's
// physical machines (Cray T3E, SGI PowerChallenge) are represented by
// parameter presets; this substitution is documented in DESIGN.md.
package machine

import (
	"fmt"
	"math"
)

// Params are the machine parameters of the cost model.
type Params struct {
	// Name labels the preset in reports.
	Name string
	// Alpha is the per-message startup cost.
	Alpha float64
	// Beta is the per-element transmission cost.
	Beta float64
	// ElemCost is the time to compute one data-space element; the paper
	// normalizes to 1.
	ElemCost float64
}

// MsgCost returns the cost of one message of n elements.
func (p Params) MsgCost(n int) float64 { return p.Alpha + p.Beta*float64(n) }

// Presets. T3ELike and PowerChallengeLike are calibrated so that the model
// experiments reproduce the paper's reported optima (Model1 b = 39 vs
// Model2 b = 23 on the T3E in Figure 5(a)); Hypothetical reproduces the
// worst-case setting of Figure 5(b) (Model1 b = 20 vs Model2 b = 3). The
// absolute values are not the hardware's microsecond figures — they are
// element-normalized parameters chosen to place the experiments in the same
// regime the paper reports, per the substitution rule in DESIGN.md.
var (
	// T3ELike: fast processors make communication relatively expensive and
	// β-dominated, as the paper observes of the T3E.
	T3ELike = Params{Name: "t3e-like", Alpha: 1500, Beta: 72, ElemCost: 1}
	// PowerChallengeLike: a slower processor lowers the relative cost of
	// communication.
	PowerChallengeLike = Params{Name: "powerchallenge-like", Alpha: 350, Beta: 6, ElemCost: 1}
	// Hypothetical is the Figure 5(b) worst case: β far above α's scale.
	Hypothetical = Params{Name: "hypothetical", Alpha: 400, Beta: 186, ElemCost: 1}
)

// TaskID indexes a task within a DAG.
type TaskID int

// Dep is a dependence on an earlier task. Elems > 0 models a message of
// that many elements (charged α + β·Elems); Elems == 0 models a same-
// processor ordering edge or a free synchronization.
type Dep struct {
	Task  TaskID
	Elems int
}

// Task is one unit of work on one processor.
type Task struct {
	Proc int
	// Elems is the task's compute size in data-space elements; its run
	// time is Elems * ElemCost.
	Elems float64
	Deps  []Dep
}

// DAG is a task graph. Tasks must be appended in topological order: every
// dependence must name a task with a smaller ID.
type DAG struct {
	Procs int
	Tasks []Task
}

// NewDAG creates an empty DAG over procs processors.
func NewDAG(procs int) *DAG { return &DAG{Procs: procs} }

// Add appends a task and returns its ID. It panics if a dependence is
// forward or the processor is out of range, which indicate builder bugs.
func (d *DAG) Add(t Task) TaskID {
	id := TaskID(len(d.Tasks))
	if t.Proc < 0 || t.Proc >= d.Procs {
		panic(fmt.Sprintf("machine: task %d on invalid proc %d (procs=%d)", id, t.Proc, d.Procs))
	}
	for _, dep := range t.Deps {
		if dep.Task >= id || dep.Task < 0 {
			panic(fmt.Sprintf("machine: task %d depends on non-earlier task %d", id, dep.Task))
		}
	}
	d.Tasks = append(d.Tasks, t)
	return id
}

// Result summarizes a simulation.
type Result struct {
	// Makespan is the completion time of the last task.
	Makespan float64
	// ProcFinish is each processor's last completion time.
	ProcFinish []float64
	// ProcBusy is each processor's total compute time.
	ProcBusy []float64
	// Messages and Elements count cross-processor transfers.
	Messages int64
	Elements int64
	// CommCost is the total message cost charged (not all of it is on the
	// critical path).
	CommCost float64
}

// Work is the compute time summed over all processors: the DAG's time on
// one processor.
func (r Result) Work() float64 {
	sum := 0.0
	for _, b := range r.ProcBusy {
		sum += b
	}
	return sum
}

// Utilization is mean busy time divided by makespan.
func (r Result) Utilization() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return r.Work() / (float64(len(r.ProcBusy)) * r.Makespan)
}

// Simulate runs the DAG on the machine and returns timing and volume.
//
// A task starts when its processor is free and every dependence's sender
// has finished; the task's processor then spends the message cost α + β·n
// receiving each cross-processor dependence before computing. Charging
// communication to the receiving processor — rather than treating it as
// overlappable latency — is the model of §4: the paper's T_comm counts
// every message the last processor receives on the critical path, which is
// how message passing behaved on the machines of the study (the CPU is
// occupied for the duration of a receive).
func (p Params) Simulate(d *DAG) Result { return p.simulate(d, nil) }

// simulate is Simulate, appending each task's span to *spans when spans is
// not nil (SimulateTimeline).
func (p Params) simulate(d *DAG, spans *[]Span) Result {
	finish := make([]float64, len(d.Tasks))
	res := Result{
		ProcFinish: make([]float64, d.Procs),
		ProcBusy:   make([]float64, d.Procs),
	}
	for id, t := range d.Tasks {
		ready := res.ProcFinish[t.Proc]
		recvCost := 0.0
		for _, dep := range t.Deps {
			arrive := finish[dep.Task]
			if dep.Elems > 0 && d.Tasks[dep.Task].Proc != t.Proc {
				cost := p.MsgCost(dep.Elems)
				recvCost += cost
				res.Messages++
				res.Elements += int64(dep.Elems)
				res.CommCost += cost
			}
			if arrive > ready {
				ready = arrive
			}
		}
		run := t.Elems * p.ElemCost
		finish[id] = ready + recvCost + run
		res.ProcFinish[t.Proc] = finish[id]
		res.ProcBusy[t.Proc] += run
		if finish[id] > res.Makespan {
			res.Makespan = finish[id]
		}
		if spans != nil {
			*spans = append(*spans, Span{Proc: t.Proc, Start: ready, Finish: finish[id], Recv: recvCost})
		}
	}
	return res
}

// Speedup returns serial time over makespan for a simulated result.
func Speedup(serial float64, r Result) float64 {
	if r.Makespan <= 0 {
		return math.Inf(1)
	}
	return serial / r.Makespan
}
