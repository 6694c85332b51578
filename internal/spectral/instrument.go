package spectral

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/mpi"
)

// solverMetrics are the per-rank step accounting handles. phase.step
// is the wall time of one Step call; phase.compute is the residual
// after subtracting the time spent inside the distributed transforms,
// i.e. the solver's own arithmetic (nonlinear products, integrating
// factors, projections). Together with the phase histograms the
// transform engine records (phase.pipeline for its regions' FFT
// passes, phase.a2a for its exchanges, at every np), the
// leaf phases tile each step wall-to-wall, which is what makes the
// printed breakdown sum to the measured wall time.
type solverMetrics struct {
	step    *metrics.Histogram
	compute *metrics.Histogram
}

func newSolverMetrics(c *mpi.Comm) *solverMetrics {
	r := c.Metrics()
	return &solverMetrics{
		step:    r.HistogramRank("phase.step", c.Rank()),
		compute: r.HistogramRank("phase.compute", c.Rank()),
	}
}

// timedTransform wraps a Transform and accumulates the seconds spent
// inside its calls into a solver-owned accumulator, so Step can
// attribute its remaining wall time to compute. The accumulator is
// plain (not atomic): a Solver is driven by one rank goroutine.
//
// On asynchrony-tolerant engines the wrapper additionally stamps each
// transform call with the solver's running within-step site counter
// before delegating. The step loop is deterministic and identical on
// every rank, so call i of a step is always the same physical quantity
// on every rank — exactly the collective-consistency SetSite requires.
type timedTransform struct {
	Transform
	secs *float64
	site *uint32 // solver-owned within-step call counter; nil unless the solver runs asynchrony-tolerant
}

func (t *timedTransform) stamp() {
	if t.site != nil {
		t.SetATSite(*t.site)
		*t.site++
	}
}

func (t *timedTransform) FourierToPhysical(phys []float64, four []complex128) {
	t.stamp()
	t0 := time.Now()
	t.Transform.FourierToPhysical(phys, four)
	*t.secs += time.Since(t0).Seconds()
}

func (t *timedTransform) PhysicalToFourier(four []complex128, phys []float64) {
	t.stamp()
	t0 := time.Now()
	t.Transform.PhysicalToFourier(four, phys)
	*t.secs += time.Since(t0).Seconds()
}
