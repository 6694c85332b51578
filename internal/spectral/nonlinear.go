package spectral

import (
	"math/cmplx"

	"repro/internal/mpi"
)

// prodPairs enumerates the six distinct components of the symmetric
// tensor u_iu_j formed in physical space each Runge–Kutta stage — the
// variable counting behind the paper's D ≈ 25 memory estimate.
var prodPairs = [6][2]int{{0, 0}, {0, 1}, {0, 2}, {1, 1}, {1, 2}, {2, 2}}

// velocityProducts evaluates the divergence-form nonlinear term
// N̂_i = −ik_j·FFT{u_iu_j} of the velocity (state[0:3], code units)
// into rhs[0:3], leaving projection and dealiasing to the caller so
// systems can add body forces (Coriolis, buoyancy) before projecting.
// It performs 3 inverse and 6 forward distributed 3D transforms,
// exactly the transform traffic the paper's timings account for. As a
// side effect s.physU holds the (shifted, under Dealias23Shift)
// physical-space velocity, which scalar advection reuses for free.
//
//psdns:hotpath
func (s *Solver) velocityProducts(state, rhs [][]complex128) {
	shift := s.cfg.Dealias == Dealias23Shift

	// To physical space, one component at a time.
	for c := 0; c < 3; c++ {
		copy(s.work, state[c])
		if shift {
			s.applyShift(s.work, +1)
		}
		s.tr.FourierToPhysical(s.physU[c], s.work)
	}

	for c := 0; c < 3; c++ {
		zero(rhs[c])
	}

	// Products back to Fourier space, accumulating the divergence.
	for _, pair := range prodPairs {
		i, j := pair[0], pair[1]
		ui, uj := s.physU[i], s.physU[j]
		for m := range s.prod {
			s.prod[m] = ui[m] * uj[m]
		}
		s.tr.PhysicalToFourier(s.work, s.prod)
		if shift {
			s.applyShift(s.work, -1)
		}
		// Code-unit bookkeeping: the product of two physical fields,
		// forward transformed, is N³·(û_i⋆û_j)_math — already in code
		// units; no extra scaling needed.
		s.accumulateDivergence(rhs, i, j)
	}
}

// accumulateDivergence adds −i·k_j·ŝ to rhs[i] (and −i·k_i·ŝ to rhs[j]
// when i≠j), where ŝ is the spectral product currently in s.work.
//
//psdns:hotpath
func (s *Solver) accumulateDivergence(rhs [][]complex128, i, j int) {
	n, mz, nxh := s.cfg.N, s.slab.MZ(), s.nxh
	idx := 0
	for iz := 0; iz < mz; iz++ {
		kz := s.kzs[iz]
		for iy := 0; iy < n; iy++ {
			ky := s.kys[iy]
			for ix := 0; ix < nxh; ix++ {
				kvec := [3]float64{s.kxs[ix], ky, kz}
				v := s.work[idx]
				// −i·k·v = complex(k·imag, −k·real).
				rhs[i][idx] += complex(kvec[j]*imag(v), -kvec[j]*real(v))
				if i != j {
					rhs[j][idx] += complex(kvec[i]*imag(v), -kvec[i]*real(v))
				}
				idx++
			}
		}
	}
}

// addCoriolis adds the Coriolis acceleration −2Ω·ẑ×u =
// (2Ω·u_y, −2Ω·u_x, 0) to rhs[0:2]. It must run before the solenoidal
// projection (the projection removes the gradient part that feeds the
// geostrophic pressure); the term does no work, so inviscid energy is
// conserved to scheme accuracy — the validation invariant of the
// rotating system.
//
//psdns:hotpath
func (s *Solver) addCoriolis(state, rhs [][]complex128, omega float64) {
	two := complex(2*omega, 0)
	ux, uy := state[0], state[1]
	rx, ry := rhs[0], rhs[1]
	for i := range rx {
		rx[i] += two * uy[i]
		ry[i] -= two * ux[i]
	}
}

// projectAndDealias applies the solenoidal projection
// N̂_⊥ = N̂ − k(k·N̂)/k² and the dealias mask to rhs[0:3].
//
//psdns:hotpath
func (s *Solver) projectAndDealias(rhs [][]complex128) {
	n, mz, nxh := s.cfg.N, s.slab.MZ(), s.nxh
	r0, r1, r2 := rhs[0], rhs[1], rhs[2]
	idx := 0
	for iz := 0; iz < mz; iz++ {
		kz := s.kzs[iz]
		for iy := 0; iy < n; iy++ {
			ky := s.kys[iy]
			for ix := 0; ix < nxh; ix++ {
				kx := s.kxs[ix]
				k2 := kx*kx + ky*ky + kz*kz
				if k2 == 0 || !s.mask[idx] {
					r0[idx] = 0
					r1[idx] = 0
					r2[idx] = 0
					idx++
					continue
				}
				dot := (complex(kx, 0)*r0[idx] +
					complex(ky, 0)*r1[idx] +
					complex(kz, 0)*r2[idx]) / complex(k2, 0)
				r0[idx] -= complex(kx, 0) * dot
				r1[idx] -= complex(ky, 0) * dot
				r2[idx] -= complex(kz, 0) * dot
				idx++
			}
		}
	}
}

// applyShift multiplies every mode by exp(sign·i·k·Δ) for the current
// step's phase shift Δ (Rogallo phase shifting).
func (s *Solver) applyShift(f []complex128, sign float64) {
	n, mz, nxh := s.cfg.N, s.slab.MZ(), s.nxh
	dx, dy, dz := s.shift[0], s.shift[1], s.shift[2]
	idx := 0
	for iz := 0; iz < mz; iz++ {
		pz := s.kzs[iz] * dz
		for iy := 0; iy < n; iy++ {
			py := s.kys[iy] * dy
			for ix := 0; ix < nxh; ix++ {
				ph := sign * (s.kxs[ix]*dx + py + pz)
				f[idx] *= cmplx.Exp(complex(0, ph))
				idx++
			}
		}
	}
}

func zero(v []complex128) {
	for i := range v {
		v[i] = 0
	}
}

// DivergenceMax returns the global maximum of |k·û| over all modes, a
// direct measure of the mass-conservation invariant (collective).
func (s *Solver) DivergenceMax() float64 {
	n, mz, nxh := s.cfg.N, s.slab.MZ(), s.nxh
	var m float64
	idx := 0
	for iz := 0; iz < mz; iz++ {
		kz := s.kzs[iz]
		for iy := 0; iy < n; iy++ {
			ky := s.kys[iy]
			for ix := 0; ix < nxh; ix++ {
				div := complex(s.kxs[ix], 0)*s.Uh[0][idx] +
					complex(ky, 0)*s.Uh[1][idx] +
					complex(kz, 0)*s.Uh[2][idx]
				if a := cmplx.Abs(div); a > m {
					m = a
				}
				idx++
			}
		}
	}
	v := []float64{m / float64(n*n*n)} // code units → û_math
	mpi.AllreduceMax(s.comm, v)
	return v[0]
}
