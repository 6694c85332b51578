package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mpi"
)

func TestRunningMomentsMatchDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var r Running
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 7
		r.Add(xs[i])
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var varr float64
	for _, x := range xs {
		varr += (x - mean) * (x - mean)
	}
	varr /= float64(len(xs) - 1)
	if math.Abs(r.Mean()-mean) > 1e-12 {
		t.Errorf("mean %g want %g", r.Mean(), mean)
	}
	if math.Abs(r.Var()-varr) > 1e-10 {
		t.Errorf("var %g want %g", r.Var(), varr)
	}
	if r.N() != 100 {
		t.Errorf("n %d", r.N())
	}
}

func TestRunningMinMax(t *testing.T) {
	var r Running
	for _, x := range []float64{3, -1, 7, 2} {
		r.Add(x)
	}
	if r.Min() != -1 || r.Max() != 7 {
		t.Errorf("min %g max %g", r.Min(), r.Max())
	}
	if r.String() == "" {
		t.Error("empty string")
	}
}

func TestRunningSingleObservation(t *testing.T) {
	var r Running
	r.Add(5)
	if r.Mean() != 5 || r.Var() != 0 || r.Std() != 0 {
		t.Errorf("single obs: %g %g", r.Mean(), r.Var())
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := map[float64]float64{0: 1, 50: 3, 100: 5, 25: 2, 75: 4, 90: 4.6}
	for p, want := range cases {
		if got := Percentile(xs, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("p%g = %g want %g", p, got, want)
		}
	}
	// Input must not be mutated.
	if xs[0] != 1 || xs[4] != 5 {
		t.Error("input mutated")
	}
}

func TestPercentileProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		p0, p50, p100 := Percentile(xs, 0), Percentile(xs, 50), Percentile(xs, 100)
		return p0 <= p50 && p50 <= p100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPercentilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Percentile(nil, 50)
}

func TestStepTimerMaxOverRanks(t *testing.T) {
	// Rank 1 sleeps longer; every rank must see rank 1's time.
	mpi.Run(2, func(c *mpi.Comm) {
		timer := NewStepTimer(c)
		timer.Begin()
		// Simulate imbalance with busy work on rank 1.
		if c.Rank() == 1 {
			acc := 0.0
			for i := 0; i < 5_000_000; i++ {
				acc += float64(i)
			}
			_ = acc
		}
		v := timer.End()
		if v <= 0 {
			t.Errorf("rank %d: nonpositive step time", c.Rank())
		}
		if timer.Steps() != 1 {
			t.Errorf("steps %d", timer.Steps())
		}
		if timer.MeanMax() != v {
			t.Errorf("mean %g vs %g", timer.MeanMax(), v)
		}
	})
}
