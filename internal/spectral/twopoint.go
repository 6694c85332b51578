package spectral

import (
	"math"

	"repro/internal/mpi"
)

// Two-point statistics: the correlation functions and structure
// functions whose scale-by-scale behaviour (inertial ranges, the
// approach to the 4/5 law) is the scientific payoff of large grids.

// LongitudinalCorrelation returns R(r) = ⟨u(x)·u(x+r·x̂)⟩ for the
// x-component at grid separations r = 0…N/2, computed in spectral
// space: R(r) = Σ_k |û|²·cos(k_x·r·Δx) (collective, no transforms).
func (s *Solver) LongitudinalCorrelation() []float64 {
	n, nxh, inv := s.cfg.N, s.nxh, s.modeNorm()
	nr := n/2 + 1
	out := make([]float64, nr)
	dx := 2 * math.Pi / float64(n)
	// Accumulate the x-wavenumber marginal of |û₀|² first (cheap), then
	// do the cosine sum once per separation.
	marg := make([]float64, nxh)
	for r := s.walkRows(); r.next(); {
		for ix, v := range s.Uh[0][r.off : r.off+nxh] {
			_, w := r.bin(ix)
			marg[ix] += w * (real(v)*real(v) + imag(v)*imag(v)) * inv
		}
	}
	mpi.AllreduceSum(s.comm, marg)
	for r := 0; r < nr; r++ {
		var acc float64
		for ix := 0; ix < nxh; ix++ {
			acc += marg[ix] * math.Cos(float64(ix)*float64(r)*dx)
		}
		out[r] = acc
	}
	return out
}

// IntegralScale returns the longitudinal integral length scale
// L11 = ∫f(r)dr with f = R/R(0), integrated by the trapezoidal rule up
// to the first zero crossing (the standard finite-box convention;
// collective).
func (s *Solver) IntegralScale() float64 {
	rr := s.LongitudinalCorrelation()
	if rr[0] <= 0 {
		return 0
	}
	dx := 2 * math.Pi / float64(s.cfg.N)
	var l float64
	prev := 1.0
	for r := 1; r < len(rr); r++ {
		f := rr[r] / rr[0]
		if f < 0 {
			// Interpolate to the zero crossing and stop.
			l += dx * prev * prev / (prev - f) / 2
			break
		}
		l += dx * (prev + f) / 2
		prev = f
	}
	return l
}

// StructureFunction2 returns S₂(r) = ⟨(u(x+r·x̂)−u(x))²⟩ for the
// longitudinal component at grid separations r = 0…N/2, from the
// correlation identity S₂ = 2(R(0) − R(r)) (collective).
func (s *Solver) StructureFunction2() []float64 {
	rr := s.LongitudinalCorrelation()
	out := make([]float64, len(rr))
	for r := range rr {
		out[r] = 2 * (rr[0] - rr[r])
	}
	return out
}

// StructureFunction3 returns S₃(r) = ⟨(δu)³⟩ for the longitudinal
// increment, computed in physical space (one inverse transform plus
// N/2 shifted products; collective). Kolmogorov's 4/5 law predicts
// S₃ → −(4/5)·ε·r in an inertial range.
func (s *Solver) StructureFunction3() []float64 {
	n := s.cfg.N
	copy(s.work, s.Uh[0])
	s.tr.FourierToPhysical(s.physU[0], s.work)
	u := s.physU[0]
	my := s.slab.MY()
	nr := n/2 + 1
	sums := make([]float64, nr)
	for iy := 0; iy < my; iy++ {
		for iz := 0; iz < n; iz++ {
			row := u[(iy*n+iz)*n : (iy*n+iz)*n+n]
			for r := 1; r < nr; r++ {
				var acc float64
				for ix := 0; ix < n; ix++ {
					d := row[(ix+r)%n] - row[ix]
					acc += d * d * d
				}
				sums[r] += acc
			}
		}
	}
	mpi.AllreduceSum(s.comm, sums)
	n3 := float64(n) * float64(n) * float64(n)
	for r := range sums {
		sums[r] /= n3
	}
	return sums
}

// TransferSpectrum returns T(k), the shell-summed rate of energy
// transfer into wavenumber shell k by the nonlinear term. The net
// transfer ΣT(k) vanishes for the dealiased Galerkin system
// (collective; evaluates the nonlinear term: 9 transforms).
func (s *Solver) TransferSpectrum() []float64 {
	s.velocityProducts(s.state, s.nl)
	s.projectAndDealias(s.nl)
	nxh, inv := s.nxh, s.modeNorm()
	spec := s.newSpectrum()
	for r := s.walkRows(); r.next(); {
		for ix := 0; ix < nxh; ix++ {
			k2, w := r.bin(ix)
			var tr float64
			for c := 0; c < 3; c++ {
				u, f := s.Uh[c][r.off+ix], s.nl[c][r.off+ix]
				tr += real(u)*real(f) + imag(u)*imag(f)
			}
			spec[shell(k2)] += w * tr * inv
		}
	}
	mpi.AllreduceSum(s.comm, spec)
	return spec
}
