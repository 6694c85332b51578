package spectral

import (
	"math"
	"math/cmplx"
	"math/rand"

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
		zero(s.Uh[c])
	}
	n := s.cfg.N
	n3 := float64(n) * float64(n) * float64(n)
	set := func(c, ix, ky, kz int, v complex128) {
		gy := (ky + n) % n
		gz := (kz + n) % n
		if s.slab.ZOwner(gz) != s.slab.Rank {
			return
		}
		iz := gz - s.slab.ZLo()
		s.Uh[c][(iz*n+gy)*s.nxh+ix] = v * complex(n3, 0)
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

// conjPairIndex maps a (y,z) index pair to its conjugate partner
// ((n−iy) mod n, (n−iz) mod n) in the kx=0 / kx=N/2 planes.
func conjPairIndex(iy, iz, n int) (int, int) {
	return (n - iy) % n, (n - iz) % n
}

// SetRandomIsotropic initializes a solenoidal Gaussian random field
// whose energy spectrum follows E(k) ∝ k⁴·exp(−2(k/k0)²), normalized
// to total energy e0. The construction is deterministic in seed and
// identical for any rank count: every mode's random numbers are keyed
// by its global index, and conjugate symmetry on the kx=0 and kx=N/2
// planes is enforced by deriving the non-canonical partner of each
// pair from the canonical one.
func (s *Solver) SetRandomIsotropic(k0, e0 float64, seed int64) {
	n, mz, nxh := s.cfg.N, s.slab.MZ(), s.nxh
	idx := 0
	for iz := 0; iz < mz; iz++ {
		gz := s.slab.ZLo() + iz
		for iy := 0; iy < n; iy++ {
			for ix := 0; ix < nxh; ix++ {
				v := s.modeIC(ix, iy, gz, k0, seed)
				s.Uh[0][idx], s.Uh[1][idx], s.Uh[2][idx] = v[0], v[1], v[2]
				idx++
			}
		}
	}
	// Rescale to the requested energy (collective).
	e := s.Energy()
	if e > 0 {
		scale := complex(math.Sqrt(e0/e), 0)
		for c := 0; c < 3; c++ {
			for i := range s.Uh[c] {
				s.Uh[c][i] *= scale
			}
		}
	}
}

// modeIC returns the solenoidal random initial value of global mode
// (ix, iy, gz), respecting conjugate symmetry.
func (s *Solver) modeIC(ix, iy, gz int, k0 float64, seed int64) [3]complex128 {
	n := s.cfg.N
	if ix == 0 || ix == n/2 {
		py, pz := conjPairIndex(iy, gz, n)
		if py == iy && pz == gz {
			// Self-conjugate mode: must be real.
			v := s.rawModeIC(ix, iy, gz, k0, seed)
			for c := range v {
				v[c] = complex(real(v[c]), 0)
			}
			return v
		}
		// Canonical representative: lexicographically smaller (gz, iy).
		if gz > pz || (gz == pz && iy > py) {
			v := s.rawModeIC(ix, py, pz, k0, seed)
			for c := range v {
				v[c] = cmplx.Conj(v[c])
			}
			return v
		}
	}
	return s.rawModeIC(ix, iy, gz, k0, seed)
}

// rawModeIC generates the unsymmetrized solenoidal random value of a
// global mode from its own deterministic RNG stream.
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
	rng := rand.New(rand.NewSource(seed ^ int64(((gz*n)+iy)*(n/2+1)+ix)*2654435761))
	amp := k * k * math.Exp(-(k/k0)*(k/k0))
	for c := 0; c < 3; c++ {
		ph := 2 * math.Pi * rng.Float64()
		v[c] = cmplx.Rect(amp*(0.5+rng.Float64()), ph)
	}
	dot := (complex(kx, 0)*v[0] + complex(ky, 0)*v[1] + complex(kz, 0)*v[2]) / complex(k2, 0)
	v[0] -= complex(kx, 0) * dot
	v[1] -= complex(ky, 0) * dot
	v[2] -= complex(kz, 0) * dot
	return v
}

// SetFieldSingleMode initializes spectral field c (for scalar-carrying
// systems, fields 3… are the scalars) with one Fourier mode, enforcing
// conjugate symmetry on the kx ∈ {0, N/2} planes.
func (s *Solver) SetFieldSingleMode(c, kx, ky, kz int, amp complex128) {
	zero(s.state[c])
	n := s.cfg.N
	n3 := float64(n) * float64(n) * float64(n)
	gy := (ky + n) % n
	gz := (kz + n) % n
	put := func(gy, gz int, v complex128) {
		if s.slab.ZOwner(gz) != s.slab.Rank {
			return
		}
		iz := gz - s.slab.ZLo()
		s.state[c][(iz*n+gy)*s.nxh+kx] = v * complex(n3, 0)
	}
	put(gy, gz, amp)
	if kx == 0 || kx == n/2 {
		py, pz := conjPairIndex(gy, gz, n)
		if py != gy || pz != gz {
			put(py, pz, complex(real(amp), -imag(amp)))
		}
	}
}

// SetFieldBlob initializes spectral field c with a smooth
// low-wavenumber random field (one component of the solenoidal
// velocity-IC construction, rank-count invariant), variance normalized
// to v0.
func (s *Solver) SetFieldBlob(c int, k0, v0 float64, seed int64) {
	n, mz, nxh := s.cfg.N, s.slab.MZ(), s.nxh
	idx := 0
	for iz := 0; iz < mz; iz++ {
		gz := s.slab.ZLo() + iz
		for iy := 0; iy < n; iy++ {
			for ix := 0; ix < nxh; ix++ {
				v := s.modeIC(ix, iy, gz, k0, seed)
				s.state[c][idx] = v[0]
				idx++
			}
		}
	}
	va := s.FieldVariance(c)
	if va > 0 {
		sf := complex(math.Sqrt(v0/va), 0)
		for i := range s.state[c] {
			s.state[c][i] *= sf
		}
	}
}

// SetSingleMode places one solenoidal Fourier mode with the given
// signed wavenumbers and amplitude (useful for exact-decay tests).
// The amplitude vector must be perpendicular to k; kx must be ≥ 0.
// Conjugate symmetry on the kx=0 plane is enforced automatically.
func (s *Solver) SetSingleMode(kx, ky, kz int, amp [3]complex128) {
	for c := 0; c < 3; c++ {
		zero(s.Uh[c])
	}
	n := s.cfg.N
	n3 := float64(n) * float64(n) * float64(n)
	put := func(ix, gy, gz int, v [3]complex128) {
		if s.slab.ZOwner(gz) != s.slab.Rank {
			return
		}
		iz := gz - s.slab.ZLo()
		idx := (iz*n+gy)*s.nxh + ix
		for c := 0; c < 3; c++ {
			s.Uh[c][idx] = v[c] * complex(n3, 0)
		}
	}
	gy := (ky + n) % n
	gz := (kz + n) % n
	put(kx, gy, gz, amp)
	if kx == 0 || kx == n/2 {
		py, pz := conjPairIndex(gy, gz, n)
		if py != gy || pz != gz {
			var conj [3]complex128
			for c := 0; c < 3; c++ {
				conj[c] = cmplx.Conj(amp[c])
			}
			put(kx, py, pz, conj)
		}
	}
}
