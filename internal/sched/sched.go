// Package sched is a small deterministic discrete-event engine used to
// predict the wall-clock behaviour of the paper's pipelines on
// Summit-class hardware. Work is expressed as a DAG of tasks; each
// task occupies one serial resource (a CUDA stream, a copy engine, the
// NIC) for a duration, and may depend on the completion of other tasks
// (CUDA events / MPI_WAIT). The engine computes start and end times by
// FIFO resource arbitration in ready-time order, which is exactly how
// in-order CUDA streams and a single NIC behave.
package sched

import (
	"fmt"
	"math"
	"sort"
)

// Resource is a serially-occupied facility (one CUDA stream, the
// host↔device transfer engine, the network interface).
type Resource struct {
	Name     string
	nextFree float64
}

// NewResource creates a named resource, idle at t=0.
func NewResource(name string) *Resource { return &Resource{Name: name} }

// Task is one unit of work in the DAG.
type Task struct {
	Name     string
	Class    string // grouping label for traces ("h2d", "fft", "a2a", …)
	Res      *Resource
	Duration float64
	Deps     []*Task

	id        int
	scheduled bool
	start     float64
	end       float64
}

// Start reports the scheduled start time (valid after Sim.Run).
func (t *Task) Start() float64 { return t.start }

// End reports the scheduled end time (valid after Sim.Run).
func (t *Task) End() float64 { return t.end }

// Sim owns a set of tasks to schedule.
type Sim struct {
	tasks []*Task
}

// NewSim creates an empty simulation.
func NewSim() *Sim { return &Sim{} }

// Add registers a task (its Deps must also be registered before Run).
func (s *Sim) Add(t *Task) *Task {
	t.id = len(s.tasks)
	s.tasks = append(s.tasks, t)
	return t
}

// NewTask is shorthand for Add(&Task{…}).
func (s *Sim) NewTask(name, class string, res *Resource, dur float64, deps ...*Task) *Task {
	if dur < 0 || math.IsNaN(dur) {
		panic(fmt.Sprintf("sched: invalid duration %g for %s", dur, name))
	}
	return s.Add(&Task{Name: name, Class: class, Res: res, Duration: dur, Deps: deps})
}

// Run schedules every task and returns the makespan. Tasks on the same
// resource run serially; among ready tasks a resource serves the one
// with the earliest ready time, breaking ties by insertion order (the
// launch order of the code being modelled).
func (s *Sim) Run() float64 {
	for _, t := range s.tasks {
		t.scheduled = false
	}
	remaining := make([]*Task, len(s.tasks))
	copy(remaining, s.tasks)
	var makespan float64
	for len(remaining) > 0 {
		// Find schedulable tasks and their ready times.
		best := -1
		bestReady := math.Inf(1)
		for i, t := range remaining {
			ready := 0.0
			ok := true
			for _, d := range t.Deps {
				if !d.scheduled {
					ok = false
					break
				}
				if d.end > ready {
					ready = d.end
				}
			}
			if !ok {
				continue
			}
			// Effective start considering the resource queue.
			eff := math.Max(ready, t.Res.nextFree)
			if eff < bestReady || (eff == bestReady && best >= 0 && t.id < remaining[best].id) {
				bestReady = eff
				best = i
			}
		}
		if best < 0 {
			panic("sched: dependency cycle or missing task registration")
		}
		t := remaining[best]
		t.start = bestReady
		t.end = t.start + t.Duration
		t.Res.nextFree = t.end
		t.scheduled = true
		if t.end > makespan {
			makespan = t.end
		}
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	return makespan
}

// Span is one scheduled interval, exported for timeline rendering.
type Span struct {
	Name     string
	Class    string
	Resource string
	Start    float64
	End      float64
}

// Spans returns the scheduled intervals sorted by start time (valid
// after Run).
func (s *Sim) Spans() []Span {
	out := make([]Span, 0, len(s.tasks))
	for _, t := range s.tasks {
		out = append(out, Span{Name: t.Name, Class: t.Class, Resource: t.Res.Name, Start: t.start, End: t.end})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Name < out[j].Name
	})
	return out
}
