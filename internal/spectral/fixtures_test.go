package spectral

import "repro/internal/mpi"

// Solver methods that only tests use: initial conditions with exact
// solutions, and diagnostics that serve as independent oracles for the
// solver's own invariants.

// SetABCFlow initializes the Arnold–Beltrami–Childress flow
//
//	u = A·sin z + C·cos y
//	v = B·sin x + A·cos z
//	w = C·sin y + B·cos x
//
// a Beltrami field (ω = u, curl eigenvalue 1): its nonlinear term
// u×ω vanishes identically, so the advective contribution is a pure
// gradient absorbed by the pressure projection and the *full*
// Navier–Stokes solution decays exactly as u(t) = u(0)·e^{−νt} — the
// strongest available end-to-end exactness test for the nonlinear
// solver, and the canonical maximal-helicity field.
func (s *Solver) SetABCFlow(a, b, c float64) {
	for comp := 0; comp < 3; comp++ {
		clear(s.Uh[comp])
	}
	n3 := complex(s.codeScale(), 0)
	// Coefficients of e^{ikx}: sin t = ∓i/2 at k=±1; cos t = 1/2 at k=±1.
	put := func(comp, kx, ky, kz int, v complex128) {
		if rank, idx := s.modeIndex(kx, ky, kz); rank == s.slab.Rank {
			s.Uh[comp][idx] += v * n3
		}
	}
	// u = A sin z + C cos y: modes (0,0,±1) and (0,±1,0) — kx = 0
	// plane, so both signs must be stored explicitly.
	put(0, 0, 0, 1, complex(0, -a/2))
	put(0, 0, 0, -1, complex(0, a/2))
	put(0, 0, 1, 0, complex(c/2, 0))
	put(0, 0, -1, 0, complex(c/2, 0))
	// v = B sin x + A cos z: mode (±1,0,0) stored at kx=+1 only (half
	// spectrum), and (0,0,±1).
	put(1, 1, 0, 0, complex(0, -b/2))
	put(1, 0, 0, 1, complex(a/2, 0))
	put(1, 0, 0, -1, complex(a/2, 0))
	// w = C sin y + B cos x.
	put(2, 0, 1, 0, complex(0, -c/2))
	put(2, 0, -1, 0, complex(0, c/2))
	put(2, 1, 0, 0, complex(b/2, 0))
}

// Helicity returns H = ⟨u·ω⟩, the alignment invariant of ideal flow
// (collective). Beltrami fields with curl eigenvalue k have H = 2k·E.
func (s *Solver) Helicity() float64 {
	w := s.Vorticity()
	return s.dotSum(s.Uh[:], w[:])
}

// SetSingleMode places one solenoidal Fourier mode with the given
// signed wavenumbers and amplitude (useful for exact-decay tests).
// The amplitude vector must be perpendicular to k; kx must be ≥ 0.
// Conjugate symmetry on the kx=0 plane is enforced automatically.
func (s *Solver) SetSingleMode(kx, ky, kz int, amp [3]complex128) {
	for c := 0; c < 3; c++ {
		s.SetFieldSingleMode(c, kx, ky, kz, amp[c])
	}
}

// Vorticity computes ω̂ = ik×û into three freshly allocated arrays in
// code units (local; no communication).
func (s *Solver) Vorticity() [3][]complex128 {
	var w [3][]complex128
	for c := 0; c < 3; c++ {
		w[c] = make([]complex128, s.tr.FourierLen())
	}
	for r := s.walkRows(); r.next(); {
		ky, kz := r.ky, r.kz
		for ix, kx := range s.kxs {
			i := r.off + ix
			u, v, ww := s.Uh[0][i], s.Uh[1][i], s.Uh[2][i]
			// ω = i·k × u.
			w[0][i] = mulIK(ky, ww) - mulIK(kz, v)
			w[1][i] = mulIK(kz, u) - mulIK(kx, ww)
			w[2][i] = mulIK(kx, v) - mulIK(ky, u)
		}
	}
	return w
}

// VorticityEnstrophyCheck returns ½⟨ω·ω⟩ computed from the explicit
// vorticity field — it must equal Enstrophy() to round-off
// (collective).
func (s *Solver) VorticityEnstrophyCheck() float64 {
	w := s.Vorticity()
	return 0.5 * s.dotSum(w[:], w[:])
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

// NonlinearEnergyTransfer returns Σ Re(û*·N̂)_math, the rate of energy
// change due to the nonlinear term alone, summed over the band where
// N̂ lives. For the projected, dealiased Galerkin-truncated system this
// is zero to round-off — the invariant tested by the
// energy-conservation tests (collective).
func (s *Solver) NonlinearEnergyTransfer() float64 {
	s.velocityProducts(s.state, s.nl)
	s.projectAndDealias(s.nl)
	sum, inv := 0.0, s.modeNorm()
	for _, r := range s.rows {
		for ix := 0; ix < s.kb; ix++ {
			w := specWeight(ix, s.cfg.N)
			for c := 0; c < 3; c++ {
				u, v := s.Uh[c][r.off+ix], s.nl[c][r.boff+ix]
				sum += w * (real(u)*real(v) + imag(u)*imag(v)) * inv
			}
		}
	}
	out := []float64{sum}
	mpi.AllreduceSum(s.comm, out)
	return out[0]
}

// SetFieldSingleMode initializes spectral field c (for scalar-carrying
// systems, fields 3… are the scalars) with one Fourier mode, enforcing
// conjugate symmetry on the kx ∈ {0, N/2} planes.
func (s *Solver) SetFieldSingleMode(c, kx, ky, kz int, amp complex128) {
	clear(s.state[c])
	n3 := complex(s.codeScale(), 0)
	put := func(rank, idx int, v complex128) {
		if rank == s.slab.Rank {
			s.state[c][idx] = v * n3
		}
	}
	rank, idx := s.modeIndex(kx, ky, kz)
	put(rank, idx, amp)
	// On the kx ∈ {0, N/2} planes the half spectrum also stores the partner
	// (−ky, −kz), unless the mode is its own partner.
	if kx == 0 || kx == s.cfg.N/2 {
		if pr, pi := s.modeIndex(kx, -ky, -kz); pr != rank || pi != idx {
			put(pr, pi, complex(real(amp), -imag(amp)))
		}
	}
}

// VelocityMoments returns the moments of the velocity component c
// itself (useful as a near-Gaussian reference against the
// intermittent gradients; collective).
func (s *Solver) VelocityMoments(c int) GradientStats {
	copy(s.work, s.Uh[c])
	s.tr.FourierToPhysical(s.physU[0], s.work)
	return s.physMoments()
}
