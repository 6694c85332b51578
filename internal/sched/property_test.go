package sched

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// buildRandomDAG creates a layered random task graph over a few
// resources: dependencies only point to earlier tasks, so it is acyclic
// by construction.
func buildRandomDAG(rng *rand.Rand) (*Sim, []*Task, []*Resource) {
	s := NewSim()
	nres := 1 + rng.Intn(3)
	res := make([]*Resource, nres)
	for i := range res {
		res[i] = NewResource(fmt.Sprintf("r%d", i))
	}
	ntasks := 1 + rng.Intn(25)
	tasks := make([]*Task, 0, ntasks)
	for i := 0; i < ntasks; i++ {
		var deps []*Task
		for _, prev := range tasks {
			if rng.Float64() < 0.15 {
				deps = append(deps, prev)
			}
		}
		dur := rng.Float64() * 5
		tasks = append(tasks, s.NewTask(fmt.Sprintf("t%d", i), "x", res[rng.Intn(nres)], dur, deps...))
	}
	return s, tasks, res
}

func TestScheduleRespectsAllConstraintsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, tasks, res := buildRandomDAG(rng)
		makespan := s.Run()
		// 1) every dependency precedes its dependent
		for _, tk := range tasks {
			for _, d := range tk.Deps {
				if tk.Start() < d.End()-1e-12 {
					return false
				}
			}
			if tk.End() > makespan+1e-12 {
				return false
			}
			if tk.End() < tk.Start() {
				return false
			}
		}
		// 2) tasks on one resource never overlap
		for _, r := range res {
			var mine []*Task
			for _, tk := range tasks {
				if tk.Res == r {
					mine = append(mine, tk)
				}
			}
			for i := 0; i < len(mine); i++ {
				for j := i + 1; j < len(mine); j++ {
					a, b := mine[i], mine[j]
					if a.Start() < b.End()-1e-12 && b.Start() < a.End()-1e-12 &&
						a.Duration > 0 && b.Duration > 0 {
						return false
					}
				}
			}
		}
		// 3) makespan ≥ both lower bounds: longest chain and busiest
		// resource
		busy := map[*Resource]float64{}
		for _, tk := range tasks {
			busy[tk.Res] += tk.Duration
		}
		for _, b := range busy {
			if b > makespan+1e-9 {
				return false
			}
		}
		var chain func(tk *Task) float64
		memo := map[*Task]float64{}
		chain = func(tk *Task) float64 {
			if v, ok := memo[tk]; ok {
				return v
			}
			best := 0.0
			for _, d := range tk.Deps {
				if c := chain(d); c > best {
					best = c
				}
			}
			memo[tk] = best + tk.Duration
			return memo[tk]
		}
		for _, tk := range tasks {
			if chain(tk) > makespan+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestSpanAccountingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, tasks, _ := buildRandomDAG(rng)
		s.Run()
		spans := s.Spans()
		if len(spans) != len(tasks) {
			return false
		}
		// Spans sorted by start.
		for i := 1; i < len(spans); i++ {
			if spans[i].Start < spans[i-1].Start {
				return false
			}
		}
		// Span time equals summed durations.
		var total, got float64
		for _, tk := range tasks {
			total += tk.Duration
		}
		for _, sp := range spans {
			got += sp.End - sp.Start
		}
		return abs(got-total) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
