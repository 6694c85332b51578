package spectral

import (
	"math"

	"repro/internal/mpi"
)

// GradientStats holds the single-point statistics of a longitudinal
// velocity gradient ∂u/∂x — the quantities whose extreme events
// motivate the ever-larger grids of the paper's reference [23]
// (Yeung, Zhai & Sreenivasan, PNAS 2015).
type GradientStats struct {
	Mean     float64
	Variance float64
	Skewness float64 // ≈ −0.5 in developed turbulence (energy cascade)
	Flatness float64 // > 3: small-scale intermittency
	Min, Max float64
}

// LongitudinalGradientStats computes the moments of ∂u_c/∂x_c for
// component c (0..2) by spectral differentiation and one inverse
// transform (collective).
func (s *Solver) LongitudinalGradientStats(c int) GradientStats {
	s.gradientField(c, c)
	return s.physMoments()
}

// TransverseGradientStats computes the moments of ∂u_c/∂x_d, c ≠ d
// (collective).
func (s *Solver) TransverseGradientStats(c, d int) GradientStats {
	s.gradientField(c, d)
	return s.physMoments()
}

// gradientField places ∂u_c/∂x_d into s.prod: ŵ = i·k_d·û_c in
// s.work, then one inverse transform.
func (s *Solver) gradientField(c, d int) {
	for r := s.walkRows(); r.next(); {
		for ix, v := range s.Uh[c][r.off : r.off+s.nxh] {
			k := [3]float64{s.kxs[ix], r.ky, r.kz}[d]
			s.work[r.off+ix] = mulIK(k, v)
		}
	}
	s.tr.FourierToPhysical(s.prod, s.work)
}

// physMoments reduces the first four moments of the field currently
// in s.prod over all ranks (collective).
func (s *Solver) physMoments() GradientStats {
	var m1, m2, m3, m4, mn, mx float64
	mn, mx = math.Inf(1), math.Inf(-1)
	for _, v := range s.prod {
		m1 += v
		m2 += v * v
		m3 += v * v * v
		m4 += v * v * v * v
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	sums := []float64{m1, m2, m3, m4, float64(len(s.prod))}
	mpi.AllreduceSum(s.comm, sums)
	neg := []float64{-mn}
	mpi.AllreduceMax(s.comm, neg)
	pos := []float64{mx}
	mpi.AllreduceMax(s.comm, pos)

	nTot := sums[4]
	mean := sums[0] / nTot
	va := sums[1]/nTot - mean*mean
	mu3 := sums[2]/nTot - 3*mean*va - mean*mean*mean
	// Central fourth moment from raw moments.
	mu4 := sums[3]/nTot - 4*mean*sums[2]/nTot + 6*mean*mean*sums[1]/nTot - 3*mean*mean*mean*mean
	sd := math.Sqrt(va)
	return GradientStats{
		Mean:     mean,
		Variance: va,
		Skewness: mu3 / (sd * sd * sd),
		Flatness: mu4 / (va * va),
		Min:      -neg[0],
		Max:      pos[0],
	}
}

// VelocityMoments returns the moments of the velocity component c
// itself (useful as a near-Gaussian reference against the
// intermittent gradients; collective).
func (s *Solver) VelocityMoments(c int) GradientStats {
	copy(s.work, s.Uh[c])
	s.tr.FourierToPhysical(s.prod, s.work)
	return s.physMoments()
}

// TaylorScaleFromGradients returns λ computed from its definition
// λ² = ⟨u²⟩/⟨(∂u/∂x)²⟩, a cross-check on the spectral-space estimate
// in Statistics (collective).
func (s *Solver) TaylorScaleFromGradients() float64 {
	g := s.LongitudinalGradientStats(0)
	u := s.VelocityMoments(0)
	return math.Sqrt(u.Variance / g.Variance)
}
