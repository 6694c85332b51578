// Package stats provides the small numeric utilities the benchmark
// harness and executables share: running moments, order statistics,
// and the max-over-ranks timing reduction the paper uses ("timings per
// step were obtained by taking the maximum over all MPI ranks,
// averaged over multiple time steps", §5).
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/mpi"
)

// Running accumulates mean and variance with Welford's algorithm.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (r *Running) Add(x float64) {
	if r.n == 0 {
		r.min, r.max = x, x
	}
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
	if x < r.min {
		r.min = x
	}
	if x > r.max {
		r.max = x
	}
}

// N reports the observation count.
func (r *Running) N() int { return r.n }

// Mean reports the running mean (0 when empty).
func (r *Running) Mean() float64 { return r.mean }

// Var reports the unbiased sample variance (0 for n < 2).
func (r *Running) Var() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// Std reports the sample standard deviation.
func (r *Running) Std() float64 { return math.Sqrt(r.Var()) }

// Min reports the smallest observation (0 when empty).
func (r *Running) Min() float64 { return r.min }

// Max reports the largest observation (0 when empty).
func (r *Running) Max() float64 { return r.max }

// String formats mean ± std (min…max).
func (r *Running) String() string {
	return fmt.Sprintf("%.4g ± %.2g (%.4g…%.4g)", r.Mean(), r.Std(), r.Min(), r.Max())
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation; xs is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: invalid percentile %g", p))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo == len(s)-1 {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// StepTimer measures per-step wall times the way the paper reports
// them: each rank times its own step, the maximum over ranks is taken
// collectively, and the maxima are averaged over steps.
type StepTimer struct {
	comm  *mpi.Comm
	start time.Time
	agg   Running
}

// NewStepTimer creates a timer over comm.
func NewStepTimer(comm *mpi.Comm) *StepTimer { return &StepTimer{comm: comm} }

// Begin marks the start of a step on the calling rank.
func (t *StepTimer) Begin() { t.start = time.Now() }

// End records the step: the rank-local elapsed time is max-reduced
// over all ranks (collective) and folded into the average.
func (t *StepTimer) End() float64 {
	v := []float64{time.Since(t.start).Seconds()}
	mpi.AllreduceMax(t.comm, v)
	t.agg.Add(v[0])
	return v[0]
}

// MeanMax reports the average over steps of the per-step rank maxima.
func (t *StepTimer) MeanMax() float64 { return t.agg.Mean() }

// Steps reports how many steps were recorded.
func (t *StepTimer) Steps() int { return t.agg.N() }
