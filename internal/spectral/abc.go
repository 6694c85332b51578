package spectral

import "repro/internal/mpi"

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

// HelicitySpectrum returns the shell-summed helicity spectrum H(k)
// with ΣH(k) = ⟨u·ω⟩ (collective).
func (s *Solver) HelicitySpectrum() []float64 {
	w := s.Vorticity()
	nxh, inv := s.nxh, s.modeNorm()
	spec := s.newSpectrum()
	for r := s.walkRows(); r.next(); {
		for ix := 0; ix < nxh; ix++ {
			k2, wt := r.bin(ix)
			sh := shell(k2)
			for c := 0; c < 3; c++ {
				u, o := s.Uh[c][r.off+ix], w[c][r.off+ix]
				spec[sh] += wt * (real(u)*real(o) + imag(u)*imag(o)) * inv
			}
		}
	}
	mpi.AllreduceSum(s.comm, spec)
	return spec
}
