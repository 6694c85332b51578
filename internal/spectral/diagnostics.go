package spectral

import (
	"math"

	"repro/internal/mpi"
)

// specWeight is the conjugate-symmetry weight of an x bin in the half
// spectrum: interior bins represent two modes (±kx), the kx=0 and
// kx=N/2 planes one each.
func specWeight(ix, n int) float64 {
	if ix == 0 || ix == n/2 {
		return 1
	}
	return 2
}

// modeSum accumulates w(k)·f(k²)·|û|²_math over the local slab for all
// three components and reduces over ranks.
func (s *Solver) modeSum(f func(k2 float64) float64) float64 {
	n, mz, nxh := s.cfg.N, s.slab.MZ(), s.nxh
	n3 := float64(n) * float64(n) * float64(n)
	inv := 1 / (n3 * n3)
	var sum float64
	idx := 0
	for iz := 0; iz < mz; iz++ {
		kz2 := s.kzs[iz] * s.kzs[iz]
		for iy := 0; iy < n; iy++ {
			ky2 := s.kys[iy] * s.kys[iy]
			for ix := 0; ix < nxh; ix++ {
				k2 := s.kxs[ix]*s.kxs[ix] + ky2 + kz2
				w := specWeight(ix, n)
				var e float64
				for c := 0; c < 3; c++ {
					v := s.Uh[c][idx]
					e += real(v)*real(v) + imag(v)*imag(v)
				}
				sum += w * f(k2) * e * inv
				idx++
			}
		}
	}
	out := []float64{sum}
	mpi.AllreduceSum(s.comm, out)
	return out[0]
}

// fieldModeSum accumulates w(k)·f(k²)·|v̂|²_math over one spectral
// field and reduces over ranks (collective).
func (s *Solver) fieldModeSum(v []complex128, f func(k2 float64) float64) float64 {
	n, mz, nxh := s.cfg.N, s.slab.MZ(), s.nxh
	n3 := float64(n) * float64(n) * float64(n)
	inv := 1 / (n3 * n3)
	var sum float64
	idx := 0
	for iz := 0; iz < mz; iz++ {
		kz2 := s.kzs[iz] * s.kzs[iz]
		for iy := 0; iy < n; iy++ {
			ky2 := s.kys[iy] * s.kys[iy]
			for ix := 0; ix < nxh; ix++ {
				k2 := s.kxs[ix]*s.kxs[ix] + ky2 + kz2
				e := real(v[idx])*real(v[idx]) + imag(v[idx])*imag(v[idx])
				sum += specWeight(ix, n) * f(k2) * e * inv
				idx++
			}
		}
	}
	out := []float64{sum}
	mpi.AllreduceSum(s.comm, out)
	return out[0]
}

// Energy returns the total kinetic energy ½⟨u·u⟩ (collective).
func (s *Solver) Energy() float64 {
	return 0.5 * s.modeSum(func(float64) float64 { return 1 })
}

// ComponentEnergy returns ½⟨u_c²⟩ of one velocity component, the
// ingredient of the rotation anisotropy diagnostic (collective).
func (s *Solver) ComponentEnergy(c int) float64 {
	return 0.5 * s.fieldModeSum(s.state[c], func(float64) float64 { return 1 })
}

// FieldVariance returns ⟨f²⟩ of spectral field c (collective). For
// scalar-carrying systems, fields 3… are the scalars.
func (s *Solver) FieldVariance(c int) float64 {
	return s.fieldModeSum(s.state[c], func(float64) float64 { return 1 })
}

// FieldDissipation returns the diffusive destruction rate of field c,
// χ = 2κ_c·Σ k²·E_f(k) (so for a scalar, d⟨θ²⟩/dt = −2χ in pure
// decay; collective).
func (s *Solver) FieldDissipation(c int) float64 {
	kappa := s.sys.Diffusivity(c)
	return kappa * s.fieldModeSum(s.state[c], func(k2 float64) float64 { return k2 })
}

// Dissipation returns ε = 2ν·Σ k²·E(k) = ν⟨|∇u|²⟩ for solenoidal
// fields (collective).
func (s *Solver) Dissipation() float64 {
	return s.cfg.Nu * s.modeSum(func(k2 float64) float64 { return k2 })
}

// Enstrophy returns Ω = ½⟨ω·ω⟩ = Σ k²·E(k) (collective).
func (s *Solver) Enstrophy() float64 {
	return 0.5 * s.modeSum(func(k2 float64) float64 { return k2 })
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
	n, mz, nxh := s.cfg.N, s.slab.MZ(), s.nxh
	n3 := float64(n) * float64(n) * float64(n)
	inv := 1 / (n3 * n3)
	// Shells extend to the corner of the wavenumber cube (√3·N/2) so
	// that ΣE(k) equals the total exactly.
	spec := make([]float64, int(math.Sqrt(3)*float64(n)/2)+2)
	idx := 0
	for iz := 0; iz < mz; iz++ {
		kz2 := s.kzs[iz] * s.kzs[iz]
		for iy := 0; iy < n; iy++ {
			ky2 := s.kys[iy] * s.kys[iy]
			for ix := 0; ix < nxh; ix++ {
				k := math.Sqrt(s.kxs[ix]*s.kxs[ix] + ky2 + kz2)
				shell := int(k + 0.5)
				if shell < len(spec) {
					var e float64
					for _, c := range fields {
						v := s.state[c][idx]
						e += real(v)*real(v) + imag(v)*imag(v)
					}
					spec[shell] += 0.5 * specWeight(ix, n) * e * inv
				}
				idx++
			}
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
	e := s.Energy()
	eps := s.Dissipation()
	omega := s.Enstrophy()
	nu := s.cfg.Nu
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
	n := s.cfg.N
	n3 := float64(n) * float64(n) * float64(n)
	inv := 1 / (n3 * n3)
	var sum float64
	idx := 0
	nxh := s.nxh
	for iz := 0; iz < s.slab.MZ(); iz++ {
		for iy := 0; iy < n; iy++ {
			for ix := 0; ix < nxh; ix++ {
				w := specWeight(ix, n)
				for c := 0; c < 3; c++ {
					u := s.Uh[c][idx]
					f := s.nl[c][idx]
					sum += w * (real(u)*real(f) + imag(u)*imag(f)) * inv
				}
				idx++
			}
		}
	}
	out := []float64{sum}
	mpi.AllreduceSum(s.comm, out)
	return out[0]
}
