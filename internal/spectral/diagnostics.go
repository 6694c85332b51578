package spectral

import (
	"math"

	"repro/internal/mpi"
)

// modeSum accumulates Σ w(k)·|f̂|²_math and Σ w(k)·k²·|f̂|²_math
// over the listed spectral fields on the local slab and reduces both
// over ranks in one collective.
func (s *Solver) modeSum(fields [][]complex128) (e, k2e float64) {
	nxh, inv := s.nxh, s.modeNorm()
	for r := s.walkRows(); r.next(); {
		for ix := 0; ix < nxh; ix++ {
			k2, w := r.bin(ix)
			var m float64
			for _, f := range fields {
				v := f[r.off+ix]
				m += real(v)*real(v) + imag(v)*imag(v)
			}
			e += w * m * inv
			k2e += w * k2 * m * inv
		}
	}
	out := []float64{e, k2e}
	mpi.AllreduceSum(s.comm, out)
	return out[0], out[1]
}

// Energy returns the total kinetic energy ½⟨u·u⟩ (collective).
func (s *Solver) Energy() float64 {
	e, _ := s.modeSum(s.Uh[:])
	return 0.5 * e
}

// ComponentEnergy returns ½⟨u_c²⟩ of one velocity component, the
// ingredient of the rotation anisotropy diagnostic (collective).
func (s *Solver) ComponentEnergy(c int) float64 {
	e, _ := s.modeSum(s.state[c : c+1])
	return 0.5 * e
}

// FieldVariance returns ⟨f²⟩ of spectral field c (collective). For
// scalar-carrying systems, fields 3… are the scalars.
func (s *Solver) FieldVariance(c int) float64 {
	e, _ := s.modeSum(s.state[c : c+1])
	return e
}

// FieldDissipation returns the diffusive destruction rate of field c,
// χ = 2κ_c·Σ k²·E_f(k) (so for a scalar, d⟨θ²⟩/dt = −2χ in pure
// decay; collective).
func (s *Solver) FieldDissipation(c int) float64 {
	_, k2e := s.modeSum(s.state[c : c+1])
	return s.sys.Diffusivity(c) * k2e
}

// Dissipation returns ε = 2ν·Σ k²·E(k) = ν⟨|∇u|²⟩ for solenoidal
// fields (collective).
func (s *Solver) Dissipation() float64 {
	_, k2e := s.modeSum(s.Uh[:])
	return s.cfg.Nu * k2e
}

// Enstrophy returns Ω = ½⟨ω·ω⟩ = Σ k²·E(k) (collective).
func (s *Solver) Enstrophy() float64 {
	_, k2e := s.modeSum(s.Uh[:])
	return 0.5 * k2e
}

// dotSum returns Σ w(k)·Re(a·b̄)_math over the components of a and b
// (collective).
func (s *Solver) dotSum(a, b [][]complex128) float64 {
	nxh, inv := s.nxh, s.modeNorm()
	var sum float64
	for r := s.walkRows(); r.next(); {
		for ix := 0; ix < nxh; ix++ {
			_, w := r.bin(ix)
			for c := range a {
				u, v := a[c][r.off+ix], b[c][r.off+ix]
				sum += w * (real(u)*real(v) + imag(u)*imag(v)) * inv
			}
		}
	}
	out := []float64{sum}
	mpi.AllreduceSum(s.comm, out)
	return out[0]
}

// Spectrum returns the shell-summed spectrum ½Σ|f̂|² of the listed
// fields for integer shells k, shell k collecting modes with |k| in
// [k−½, k+½). With no argument it is the kinetic energy spectrum E(k)
// of the three velocity components (ΣE(k) = Energy); Spectrum(c) is
// the spectrum of one field, e.g. a scalar's E_θ(k) with
// ΣE_θ(k) = ⟨θ²⟩/2 (collective).
func (s *Solver) Spectrum(fields ...int) []float64 {
	if len(fields) == 0 {
		fields = []int{0, 1, 2}
	}
	nxh, inv := s.nxh, s.modeNorm()
	spec := s.newSpectrum()
	for r := s.walkRows(); r.next(); {
		for ix := 0; ix < nxh; ix++ {
			k2, w := r.bin(ix)
			var e float64
			for _, c := range fields {
				v := s.state[c][r.off+ix]
				e += real(v)*real(v) + imag(v)*imag(v)
			}
			spec[shell(k2)] += 0.5 * w * e * inv
		}
	}
	mpi.AllreduceSum(s.comm, spec)
	return spec
}

// Stats bundles the standard single-time turbulence statistics.
type Stats struct {
	Energy      float64
	Dissipation float64
	Enstrophy   float64
	URMS        float64 // rms of one velocity component
	TaylorScale float64 // λ = u'·√(15ν/ε)
	ReLambda    float64 // Taylor-microscale Reynolds number
	Kolmogorov  float64 // η = (ν³/ε)^{1/4}
	KMaxEta     float64 // small-scale resolution k_max·η
	IntegralT   float64 // large-eddy turnover time E/ε... L/u'
}

// Statistics computes the bundle (collective). With zero dissipation
// the Reynolds-number entries are NaN, as in post-processing practice.
func (s *Solver) Statistics() Stats {
	sum, k2sum := s.modeSum(s.Uh[:])
	nu := s.cfg.Nu
	e, eps, omega := 0.5*sum, nu*k2sum, 0.5*k2sum
	urms := math.Sqrt(2.0 * e / 3.0)
	lambda := urms * math.Sqrt(15*nu/eps)
	var st Stats
	st.Energy = e
	st.Dissipation = eps
	st.Enstrophy = omega
	st.URMS = urms
	st.TaylorScale = lambda
	st.ReLambda = urms * lambda / nu
	st.Kolmogorov = math.Pow(nu*nu*nu/eps, 0.25)
	kmax := math.Sqrt(2.0) * float64(s.cfg.N) / 3.0
	st.KMaxEta = kmax * st.Kolmogorov
	st.IntegralT = e / eps
	return st
}

// CFL returns the advective Courant number u_max·dt/Δx for the current
// field (collective; requires three inverse transforms).
func (s *Solver) CFL(dt float64) float64 {
	var umax float64
	for c := 0; c < 3; c++ {
		copy(s.work, s.Uh[c])
		s.tr.FourierToPhysical(s.physU[c], s.work)
		for _, v := range s.physU[c] {
			if a := math.Abs(v); a > umax {
				umax = a
			}
		}
	}
	v := []float64{umax}
	mpi.AllreduceMax(s.comm, v)
	dx := 2 * math.Pi / float64(s.cfg.N)
	return v[0] * dt / dx
}

// NonlinearEnergyTransfer returns Σ Re(û*·N̂)_math, the rate of energy
// change due to the nonlinear term alone. For the projected, dealiased
// Galerkin-truncated system this is zero to round-off — the invariant
// tested by the energy-conservation tests (collective).
func (s *Solver) NonlinearEnergyTransfer() float64 {
	s.velocityProducts(s.state, s.nl)
	s.projectAndDealias(s.nl)
	return s.dotSum(s.Uh[:], s.nl[:3])
}
