package spectral

import (
	"math"
	"math/cmplx"

	"repro/internal/grid"
)

// SetTaylorGreen initializes the classical Taylor–Green vortex
//
//	u =  sin x · cos y · cos z
//	v = −cos x · sin y · cos z
//	w = 0
//
// directly in Fourier space (it occupies only the |k_i| = 1 modes), a
// solenoidal analytic field used for physics validation. Stored
// coefficients are in code units (N³·û_math).
func (s *Solver) SetTaylorGreen() {
	for c := 0; c < 3; c++ {
		clear(s.Uh[c])
	}
	n3 := complex(s.codeScale(), 0)
	set := func(c, ix, ky, kz int, v complex128) {
		if rank, idx := s.modeIndex(ix, ky, kz); rank == s.slab.Rank {
			s.Uh[c][idx] = v * n3
		}
	}
	for _, ky := range []int{1, -1} {
		for _, kz := range []int{1, -1} {
			// û(1,±1,±1) = −i/8 (from sin x·cos y·cos z).
			set(0, 1, ky, kz, complex(0, -0.125))
			// v̂(1,ky,kz) = +i·sign(ky)/8 (from −cos x·sin y·cos z).
			set(1, 1, ky, kz, complex(0, 0.125*float64(ky)))
		}
	}
}

// SetRandomIsotropic initializes a solenoidal Gaussian random field
// whose energy spectrum follows E(k) ∝ k⁴·exp(−2(k/k0)²), normalized
// to total energy e0. The construction is deterministic in seed and
// identical for any rank count: every mode's random numbers are keyed
// by its global index, and conjugate symmetry on the kx=0 and kx=N/2
// planes is enforced by deriving the non-canonical partner of each
// pair from the canonical one.
func (s *Solver) SetRandomIsotropic(k0, e0 float64, seed int64) {
	s.setRandom(k0, seed, s.Uh[:]...)
	// Rescale to the requested energy (collective).
	s.rescale(s.Uh[:], e0, s.Energy())
}

// setRandom stores component c of every local mode's solenoidal random
// initial value in dst[c].
//
//psdns:hotpath
func (s *Solver) setRandom(k0 float64, seed int64, dst ...[]complex128) {
	for r := s.walkRows(); r.next(); {
		for ix := 0; ix < s.nxh; ix++ {
			v := s.modeIC(ix, r.iy, r.gz, k0, seed)
			for c, f := range dst {
				f[r.off+ix] = v[c]
			}
		}
	}
}

// rescale multiplies the fields by √(want/got), a no-op unless got > 0.
func (s *Solver) rescale(fields [][]complex128, want, got float64) {
	if got <= 0 {
		return
	}
	sf := complex(math.Sqrt(want/got), 0)
	for _, f := range fields {
		for i := range f {
			f[i] *= sf
		}
	}
}

// modeIC returns the solenoidal random initial value of global mode
// (ix, iy, gz), respecting conjugate symmetry: a mode takes the values
// its pair's canonical mode draws, conjugated for the partner and real
// for a self-conjugate mode.
//
//psdns:hotpath
func (s *Solver) modeIC(ix, iy, gz int, k0 float64, seed int64) [3]complex128 {
	cy, cz, rel := canonical(ix, iy, gz, s.cfg.N)
	v := s.rawModeIC(ix, cy, cz, k0, seed)
	for c := range v {
		switch rel {
		case 0:
			v[c] = complex(real(v[c]), 0)
		case -1:
			v[c] = cmplx.Conj(v[c])
		}
	}
	return v
}

// rawModeIC generates the unsymmetrized solenoidal random value of a
// global mode from the first six draws of its own math/rand stream,
// keyed by the global mode id and evaluated by jump-ahead (draws.go).
//
//psdns:hotpath
func (s *Solver) rawModeIC(ix, iy, gz int, k0 float64, seed int64) [3]complex128 {
	n := s.cfg.N
	kx := float64(ix)
	ky := float64(grid.Wavenumber(iy, n))
	kz := float64(grid.Wavenumber(gz, n))
	k2 := kx*kx + ky*ky + kz*kz
	var v [3]complex128
	if k2 == 0 {
		return v
	}
	k := math.Sqrt(k2)
	// Keep the spectrum inside the dealiased band.
	if band := grid.NewBand(n, grid.DealiasKmax(n)); !band.Has(ix) || !band.Has(iy) || !band.Has(gz) {
		return v
	}
	var u [2 * len(v)]float64
	seededDraws(seed^int64(s.modeGID(ix, iy, gz))*2654435761, u[:])
	amp := k * k * math.Exp(-(k/k0)*(k/k0))
	for c := 0; c < 3; c++ {
		ph := 2 * math.Pi * u[2*c]
		v[c] = cmplx.Rect(amp*(0.5+u[2*c+1]), ph)
	}
	dot := divReal(complex(kx, 0)*v[0]+complex(ky, 0)*v[1]+complex(kz, 0)*v[2], k2)
	v[0] -= complex(kx, 0) * dot
	v[1] -= complex(ky, 0) * dot
	v[2] -= complex(kz, 0) * dot
	return v
}

// SetFieldBlob initializes spectral field c with a smooth
// low-wavenumber random field (one component of the solenoidal
// velocity-IC construction, rank-count invariant), variance normalized
// to v0.
func (s *Solver) SetFieldBlob(c int, k0, v0 float64, seed int64) {
	s.setRandom(k0, seed, s.state[c])
	s.rescale(s.state[c:c+1], v0, s.FieldVariance(c))
}
