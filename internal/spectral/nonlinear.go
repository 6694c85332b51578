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

	// Products back to Fourier space, accumulating the divergence. The
	// pair order gives every rhs[c] its k_x term first, which is the
	// term accumulateFlux stores rather than adds — no clearing pass.
	for _, pair := range prodPairs {
		i, j := pair[0], pair[1]
		mulTo(s.prod, s.physU[i], s.physU[j])
		s.tr.PhysicalToFourier(s.work, s.prod)
		if shift {
			s.applyShift(s.work, -1)
		}
		// Code-unit bookkeeping: the product of two physical fields,
		// forward transformed, is N³·(û_i⋆û_j)_math — already in code
		// units; no extra scaling needed.
		if i == j {
			s.accumulateFlux(rhs[i], j, nil, 0)
		} else {
			s.accumulateFlux(rhs[i], j, rhs[j], i)
		}
	}
}

// mulTo computes the physical-space product dst = a·b.
//
//psdns:hotpath
func mulTo(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for m := range dst {
		dst[m] = a[m] * b[m]
	}
}

// clearOutOfBand stores +0 over every entry of f outside the band:
// everything but the first kb modes of each row in s.rows.
//
//psdns:hotpath
func (s *Solver) clearOutOfBand(f []complex128) {
	next := 0
	for _, r := range s.rows {
		clear(f[next:r.off])
		next = r.off + s.kb
	}
	clear(f[next:])
}

// accumulateFlux accumulates −i·k_comp·ŝ into the in-band modes of dst,
// where ŝ is the spectral product currently in s.work — one term of a
// divergence −i(k_x·ŝ_x + k_y·ŝ_y + k_z·ŝ_z). Callers issue the x term
// first, so comp 0 stores 0 + term (the bits a cleared destination
// would hold after its first add) and comp 1, 2 add; k_x streams from
// kxs, k_y and k_z are constant along an x-row. A non-nil dst2 receives
// the comp2 term of the same ŝ in the same pass (an off-diagonal product
// u_iu_j feeds two components; dst then takes a y or z term). Modes
// outside the band are neither read nor written: the dealias loop that
// follows stores their +0.
//
//psdns:hotpath
func (s *Solver) accumulateFlux(dst []complex128, comp int, dst2 []complex128, comp2 int) {
	kb := s.kb
	kxs := s.kxs[:kb]
	for _, r := range s.rows {
		lo, ky, kz := r.off, s.kys[r.iy], s.kzs[r.iz]
		w, d := s.work[lo:lo+kb], dst[lo:lo+kb]
		k := ky // comp 1; unused by the comp 0 store
		if comp == 2 {
			k = kz
		}
		// −i·k·v = complex(k·imag, −k·real) throughout.
		switch {
		case dst2 == nil && comp == 0:
			for i, v := range w {
				kx := kxs[i]
				d[i] = 0 + complex(kx*imag(v), -kx*real(v))
			}
		case dst2 == nil:
			for i, v := range w {
				d[i] += complex(k*imag(v), -k*real(v))
			}
		case comp2 == 0:
			d2 := dst2[lo : lo+kb]
			for i, v := range w {
				kx := kxs[i]
				d[i] += complex(k*imag(v), -k*real(v))
				d2[i] = 0 + complex(kx*imag(v), -kx*real(v))
			}
		default:
			d2, k2 := dst2[lo:lo+kb], ky
			if comp2 == 2 {
				k2 = kz
			}
			for i, v := range w {
				d[i] += complex(k*imag(v), -k*real(v))
				d2[i] += complex(k2*imag(v), -k2*real(v))
			}
		}
	}
}

// addCoriolis adds the Coriolis acceleration −2Ω·ẑ×u =
// (2Ω·u_y, −2Ω·u_x, 0) to the in-band modes of rhs[0:2]. It must run
// before the solenoidal projection (the projection removes the gradient
// part that feeds the geostrophic pressure, and stores the band's
// zeros); the term does no work, so inviscid energy is conserved to
// scheme accuracy — the validation invariant of the rotating system.
//
//psdns:hotpath
func (s *Solver) addCoriolis(state, rhs [][]complex128, omega float64) {
	two := complex(2*omega, 0)
	kb := s.kb
	for _, r := range s.rows {
		lo := r.off
		rx := rhs[0][lo : lo+kb]
		ry, ux, uy := rhs[1][lo:lo+kb], state[0][lo:lo+kb], state[1][lo:lo+kb]
		for i := range rx {
			rx[i] += two * uy[i]
			ry[i] -= two * ux[i]
		}
	}
}

// projectAndDealias applies the solenoidal projection
// N̂_⊥ = N̂ − k(k·N̂)/k² to the in-band modes of rhs[0:3] and stores +0
// over every other mode, the 2/3 rule's truncation.
//
//psdns:hotpath
func (s *Solver) projectAndDealias(rhs [][]complex128) {
	kb := s.kb
	kxs := s.kxs[:kb]
	for _, r := range s.rows {
		lo, ky, kz := r.off, s.kys[r.iy], s.kzs[r.iz]
		r0, r1, r2 := rhs[0][lo:lo+kb], rhs[1][lo:lo+kb], rhs[2][lo:lo+kb]
		kyz2 := ky*ky + kz*kz
		cky, ckz := complex(ky, 0), complex(kz, 0)
		for ix, kx := range kxs {
			k2 := kx*kx + kyz2
			if k2 == 0 {
				r0[ix], r1[ix], r2[ix] = 0, 0, 0
				continue
			}
			ckx := complex(kx, 0)
			dot := (ckx*r0[ix] + cky*r1[ix] + ckz*r2[ix]) / complex(k2, 0)
			r0[ix] -= ckx * dot
			r1[ix] -= cky * dot
			r2[ix] -= ckz * dot
		}
	}
	s.clearOutOfBand(rhs[0])
	s.clearOutOfBand(rhs[1])
	s.clearOutOfBand(rhs[2])
}

// applyShift multiplies every in-band mode by exp(sign·i·k·Δ) for the
// current step's phase shift Δ (Rogallo phase shifting). The modes
// outside the band are left alone: the truncated transform neither
// reads them nor returns anything but +0 there, and no right-hand-side
// loop reads them.
//
//psdns:hotpath
func (s *Solver) applyShift(f []complex128, sign float64) {
	kb := s.kb
	dx, dy, dz := s.shift[0], s.shift[1], s.shift[2]
	kxs := s.kxs[:kb]
	for _, r := range s.rows {
		py, pz := s.kys[r.iy]*dy, s.kzs[r.iz]*dz
		row := f[r.off : r.off+kb]
		for ix, kx := range kxs {
			ph := sign * (kx*dx + py + pz)
			row[ix] *= cmplx.Exp(complex(0, ph))
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
	n := s.cfg.N
	var m float64
	for r := s.walkRows(); r.next(); {
		for ix, kx := range s.kxs {
			i := r.off + ix
			div := complex(kx, 0)*s.Uh[0][i] +
				complex(r.ky, 0)*s.Uh[1][i] +
				complex(r.kz, 0)*s.Uh[2][i]
			if a := cmplx.Abs(div); a > m {
				m = a
			}
		}
	}
	v := []float64{m / float64(n*n*n)} // code units → û_math
	mpi.AllreduceMax(s.comm, v)
	return v[0]
}
