package machine

import (
	"math"
	"testing"
)

func TestSimulateChain(t *testing.T) {
	// Two tasks on one proc run back to back.
	p := Params{Alpha: 10, Beta: 1, ElemCost: 1}
	d := NewDAG(1)
	a := d.Add(Task{Proc: 0, Elems: 5})
	d.Add(Task{Proc: 0, Elems: 3, Deps: []Dep{{Task: a}}})
	r := p.Simulate(d)
	if r.Makespan != 8 {
		t.Errorf("makespan = %g, want 8", r.Makespan)
	}
	if r.Messages != 0 {
		t.Errorf("messages = %d", r.Messages)
	}
}

func TestSimulateMessageCost(t *testing.T) {
	p := Params{Alpha: 10, Beta: 2, ElemCost: 1}
	d := NewDAG(2)
	a := d.Add(Task{Proc: 0, Elems: 4})
	d.Add(Task{Proc: 1, Elems: 6, Deps: []Dep{{Task: a, Elems: 3}}})
	r := p.Simulate(d)
	// t(a)=4; message arrives 4 + 10 + 2*3 = 20; b finishes 26.
	if r.Makespan != 26 {
		t.Errorf("makespan = %g, want 26", r.Makespan)
	}
	if r.Messages != 1 || r.Elements != 3 {
		t.Errorf("volume = %d msgs %d elems", r.Messages, r.Elements)
	}
	if r.CommCost != 16 {
		t.Errorf("comm cost = %g, want 16", r.CommCost)
	}
}

func TestSameProcDepFree(t *testing.T) {
	p := Params{Alpha: 100, Beta: 100, ElemCost: 1}
	d := NewDAG(1)
	a := d.Add(Task{Proc: 0, Elems: 1})
	d.Add(Task{Proc: 0, Elems: 1, Deps: []Dep{{Task: a, Elems: 50}}})
	r := p.Simulate(d)
	if r.Makespan != 2 {
		t.Errorf("same-proc dependence must be free; makespan = %g", r.Makespan)
	}
	if r.Messages != 0 {
		t.Error("same-proc dependence must not count as a message")
	}
}

func TestUtilization(t *testing.T) {
	p := Params{ElemCost: 1}
	d := NewDAG(2)
	a := d.Add(Task{Proc: 0, Elems: 10})
	d.Add(Task{Proc: 1, Elems: 10, Deps: []Dep{{Task: a, Elems: 1}}})
	r := p.Simulate(d)
	// Proc1 waits 10+α(0)+β(0) = 10, finishes 20; busy 10+10; util = 20/(2*20).
	if got := r.Utilization(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("utilization = %g, want 0.5", got)
	}
}

func TestSpeedupHelper(t *testing.T) {
	r := Result{Makespan: 50}
	if got := Speedup(100, r); got != 2 {
		t.Errorf("speedup = %g", got)
	}
}

func TestAddPanicsOnForwardDep(t *testing.T) {
	d := NewDAG(1)
	defer func() {
		if recover() == nil {
			t.Error("forward dependence must panic")
		}
	}()
	d.Add(Task{Proc: 0, Deps: []Dep{{Task: 0}}})
}
