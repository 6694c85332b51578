package sched

import (
	"math"
	"testing"
)

func TestSerialResourceQueues(t *testing.T) {
	s := NewSim()
	r := NewResource("stream")
	a := s.NewTask("a", "x", r, 2)
	b := s.NewTask("b", "x", r, 3)
	mk := s.Run()
	if a.Start() != 0 || a.End() != 2 {
		t.Errorf("a: [%g,%g]", a.Start(), a.End())
	}
	if b.Start() != 2 || b.End() != 5 {
		t.Errorf("b: [%g,%g]", b.Start(), b.End())
	}
	if mk != 5 {
		t.Errorf("makespan %g", mk)
	}
}

func TestIndependentResourcesOverlap(t *testing.T) {
	s := NewSim()
	r1, r2 := NewResource("compute"), NewResource("transfer")
	s.NewTask("fft", "fft", r1, 4)
	s.NewTask("copy", "h2d", r2, 3)
	if mk := s.Run(); mk != 4 {
		t.Errorf("makespan %g want 4 (overlap)", mk)
	}
}

func TestDependencyOrdering(t *testing.T) {
	s := NewSim()
	r1, r2 := NewResource("a"), NewResource("b")
	x := s.NewTask("x", "x", r1, 2)
	y := s.NewTask("y", "y", r2, 1, x) // waits for x despite free resource
	s.Run()
	if y.Start() != 2 {
		t.Errorf("y started at %g want 2", y.Start())
	}
}

func TestDiamondDependency(t *testing.T) {
	s := NewSim()
	r := NewResource("r")
	r2 := NewResource("r2")
	a := s.NewTask("a", "", r, 1)
	b := s.NewTask("b", "", r, 2, a)
	c := s.NewTask("c", "", r2, 5, a)
	d := s.NewTask("d", "", r, 1, b, c)
	mk := s.Run()
	if d.Start() != 6 { // max(b.end=3, c.end=6)
		t.Errorf("d start %g want 6", d.Start())
	}
	if mk != 7 {
		t.Errorf("makespan %g want 7", mk)
	}
}

func TestPipelineOverlapShape(t *testing.T) {
	// Classic 3-stage software pipeline: with k items on 2 alternating
	// resources (copy, compute), makespan = copy + k·compute when
	// compute dominates.
	s := NewSim()
	cp := NewResource("copy")
	cm := NewResource("compute")
	k := 5
	var prevCopy, prevComp *Task
	for i := 0; i < k; i++ {
		deps := []*Task{}
		if prevCopy != nil {
			deps = append(deps, prevCopy)
		}
		c := s.NewTask("h2d", "h2d", cp, 1, deps...)
		cdeps := []*Task{c}
		if prevComp != nil {
			cdeps = append(cdeps, prevComp)
		}
		f := s.NewTask("fft", "fft", cm, 2, cdeps...)
		prevCopy, prevComp = c, f
	}
	mk := s.Run()
	want := 1.0 + float64(k)*2.0
	if math.Abs(mk-want) > 1e-12 {
		t.Errorf("pipelined makespan %g want %g", mk, want)
	}
}

func TestFIFOByReadyTimeOnSharedResource(t *testing.T) {
	s := NewSim()
	r := NewResource("net")
	gate := NewResource("gate")
	g1 := s.NewTask("g1", "", gate, 1)
	g2 := s.NewTask("g2", "", gate, 2, g1)
	// late becomes ready at t=3, early at t=1; early must run first
	// even though late was inserted first.
	late := s.NewTask("late", "", r, 1, g2)
	early := s.NewTask("early", "", r, 5, g1)
	s.Run()
	if early.Start() != 1 {
		t.Errorf("early start %g want 1", early.Start())
	}
	if late.Start() != 6 {
		t.Errorf("late start %g want 6 (queued behind early)", late.Start())
	}
}

func TestSpansSortedAndTotals(t *testing.T) {
	s := NewSim()
	r := NewResource("r")
	s.NewTask("b", "fft", r, 2)
	s.NewTask("a", "h2d", r, 1)
	s.Run()
	spans := s.Spans()
	if len(spans) != 2 || spans[0].Start > spans[1].Start {
		t.Errorf("spans not sorted: %+v", spans)
	}
	tot := map[string]float64{}
	for _, sp := range spans {
		tot[sp.Class] += sp.End - sp.Start
	}
	if tot["fft"] != 2 || tot["h2d"] != 1 {
		t.Errorf("span time per class %v", tot)
	}
}

func TestZeroDurationTasks(t *testing.T) {
	s := NewSim()
	r := NewResource("r")
	a := s.NewTask("a", "", r, 0)
	b := s.NewTask("b", "", r, 1, a)
	if mk := s.Run(); mk != 1 {
		t.Errorf("makespan %g", mk)
	}
	if b.Start() != 0 {
		t.Errorf("b start %g", b.Start())
	}
}

func TestPanicsOnNegativeDuration(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s := NewSim()
	s.NewTask("bad", "", NewResource("r"), -1)
}

func TestPanicsOnCycle(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s := NewSim()
	r := NewResource("r")
	a := &Task{Name: "a", Res: r, Duration: 1}
	b := &Task{Name: "b", Res: r, Duration: 1, Deps: []*Task{a}}
	a.Deps = []*Task{b}
	s.Add(a)
	s.Add(b)
	s.Run()
}

func TestRunIsRepeatable(t *testing.T) {
	s := NewSim()
	r1, r2 := NewResource("a"), NewResource("b")
	x := s.NewTask("x", "", r1, 2)
	s.NewTask("y", "", r2, 1, x)
	mk1 := s.Run()
	// Rerun after resetting resources should give the same answer.
	r1.nextFree, r2.nextFree = 0, 0
	mk2 := s.Run()
	if mk1 != mk2 {
		t.Errorf("non-deterministic: %g vs %g", mk1, mk2)
	}
}
