package spectral

import (
	"math"
	"math/cmplx"
)

// prodPairs enumerates the six distinct components of the symmetric
// tensor u_iu_j formed in physical space each Runge–Kutta stage, in the
// order their forward transforms run. prodInto names the physU buffer
// each product is written over: one whose component is not yet
// computed (u_2, for the first two) or is read for the last time by
// that product, so the velocity and its six products share three
// physical fields.
var (
	prodPairs = [6][2]int{{0, 0}, {0, 1}, {0, 2}, {1, 1}, {1, 2}, {2, 2}}
	prodInto  = [6]int{2, 2, 0, 0, 1, 2}
)

// velocityProducts evaluates the divergence-form nonlinear term
// N̂_i = −ik_j·FFT{u_iu_j} of the velocity (state[0:3], code units)
// into the band fields rhs[0:3], leaving projection and dealiasing to
// the caller so systems can add body forces (Coriolis, buoyancy) before
// projecting.
// It performs 3 inverse and 6 forward distributed 3D transforms,
// exactly the transform traffic the paper's timings account for:
// velocityPhysical, then velocityFlux. Afterwards s.physU holds
// products, not the velocity; a system that reuses the physical
// velocity runs between the two phases.
//
//psdns:hotpath
func (s *Solver) velocityProducts(state, rhs [][]complex128) {
	s.velocityPhysical(state, rhs)
	s.velocityFlux(rhs)
}

// velocityPhysical is the first phase of velocityProducts: it brings
// each velocity component to s.physU[c] and, as soon as its factors
// are there, transforms back the products u_0u_0 (after u_0) and
// u_0u_1 (after u_1), both written over s.physU[2]. It leaves the
// (shifted, under Dealias23Shift) physical-space velocity in s.physU,
// which scalar advection reuses for free, and rhs[0:3] partial until
// velocityFlux runs.
//
//psdns:hotpath
func (s *Solver) velocityPhysical(state, rhs [][]complex128) {
	for c := 0; c < 3; c++ {
		s.toPhysical(s.physU[c], state[c])
		if c < 2 {
			s.productFlux(rhs, c)
		}
	}
}

// velocityFlux is the second phase of velocityProducts: the four
// products left, each written over a velocity component's buffer
// (prodInto), so s.physU no longer holds the velocity afterwards.
//
//psdns:hotpath
func (s *Solver) velocityFlux(rhs [][]complex128) {
	for p := 2; p < len(prodPairs); p++ {
		s.productFlux(rhs, p)
	}
}

// toPhysical brings the spectral field f to physical space in dst,
// phase-shifted under Dealias23Shift, through s.work.
//
//psdns:hotpath
func (s *Solver) toPhysical(dst []float64, f []complex128) {
	copy(s.work, f)
	if s.cfg.Dealias == Dealias23Shift {
		s.applyShift(s.work, +1)
	}
	s.tr.FourierToPhysical(dst, s.work)
}

// productFlux forms product p of prodPairs over s.physU[prodInto[p]],
// transforms it forward and accumulates its divergence terms. The pair
// order gives every rhs[c] its k_x term first, which is the term
// accumulateFlux stores rather than adds — no clearing pass.
//
//psdns:hotpath
func (s *Solver) productFlux(rhs [][]complex128, p int) {
	i, j := prodPairs[p][0], prodPairs[p][1]
	dst := s.physU[prodInto[p]]
	mulTo(dst, s.physU[i], s.physU[j])
	s.forward(dst)
	// Code-unit bookkeeping: the product of two physical fields,
	// forward transformed, is N³·(û_i⋆û_j)_math — already in code
	// units; no extra scaling needed.
	if i == j {
		s.accumulateFlux(rhs[i], j, nil, 0)
	} else {
		s.accumulateFlux(rhs[i], j, rhs[j], i)
	}
}

// forward transforms the physical field f into s.work and undoes the
// phase shift under Dealias23Shift.
//
//psdns:hotpath
func (s *Solver) forward(f []float64) {
	s.tr.PhysicalToFourier(s.work, f)
	if s.cfg.Dealias == Dealias23Shift {
		s.applyShift(s.work, -1)
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

// accumulateFlux accumulates −i·k_comp·ŝ into the band field dst, where
// ŝ is the spectral product currently in s.work — one term of a
// divergence −i(k_x·ŝ_x + k_y·ŝ_y + k_z·ŝ_z). Callers issue the x term
// first, so comp 0 stores 0 + term (the bits a cleared destination
// would hold after its first add) and comp 1, 2 add; k_x streams from
// kxs, k_y and k_z are constant along an x-row. A non-nil dst2 receives
// the comp2 term of the same ŝ in the same pass (an off-diagonal product
// u_iu_j feeds two components; dst then takes a y or z term). The modes
// of s.work outside the band are not read.
//
//psdns:hotpath
func (s *Solver) accumulateFlux(dst []complex128, comp int, dst2 []complex128, comp2 int) {
	kb := s.kb
	kxs := s.kxs[:kb]
	for _, r := range s.rows {
		lo, ky, kz := r.boff, s.kys[r.iy], s.kzs[r.iz]
		w, d := s.work[r.off:r.off+kb], dst[lo:lo+kb]
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
// (2Ω·u_y, −2Ω·u_x, 0) to the band fields rhs[0:2]. It must run before
// the solenoidal projection (the projection removes the gradient part
// that feeds the geostrophic pressure); the term does no work, so
// inviscid energy is conserved to scheme accuracy — the validation
// invariant of the rotating system.
//
//psdns:hotpath
func (s *Solver) addCoriolis(state, rhs [][]complex128, omega float64) {
	two := complex(2*omega, 0)
	kb := s.kb
	for _, r := range s.rows {
		lo, b := r.off, r.boff
		rx := rhs[0][b : b+kb]
		ry, ux, uy := rhs[1][b:b+kb], state[0][lo:lo+kb], state[1][lo:lo+kb]
		for i := range rx {
			rx[i] += two * uy[i]
			ry[i] -= two * ux[i]
		}
	}
}

// projectAndDealias applies the solenoidal projection
// N̂_⊥ = N̂ − k(k·N̂)/k² to the band fields rhs[0:3]. Nothing outside
// the band is stored, so the 2/3 rule's truncation needs no pass.
//
//psdns:hotpath
func (s *Solver) projectAndDealias(rhs [][]complex128) {
	kb := s.kb
	kxs := s.kxs[:kb]
	for _, r := range s.rows {
		lo, ky, kz := r.boff, s.kys[r.iy], s.kzs[r.iz]
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
			dot := divReal(ckx*r0[ix]+cky*r1[ix]+ckz*r2[ix], k2)
			r0[ix] -= ckx * dot
			r1[ix] -= cky * dot
			r2[ix] -= ckz * dot
		}
	}
}

// divReal returns n / complex(k2, 0) for k2 > 0, bit for bit, without
// the runtime's complex division call. That division (Smith's
// algorithm) takes ratio = 0/k2 = +0 and denominator k2 + ratio·0 = k2
// here, so it computes e = (re + im·0)/k2 and f = (im − re·0)/k2, the
// ×0 terms setting signs of zero and turning an infinite part into NaN.
// Only when both come out NaN does it apply the C99 Annex G recovery
// of infinities and zeros, so that case still calls it.
func divReal(n complex128, k2 float64) complex128 {
	e := (real(n) + imag(n)*0) / k2
	f := (imag(n) - real(n)*0) / k2
	if math.IsNaN(e) && math.IsNaN(f) {
		return n / complex(k2, 0)
	}
	return complex(e, f)
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
	return s.reduceMax(m / float64(n*n*n)) // code units → û_math
}

// reduceMax returns the maximum of v over all ranks through the
// solver's persistent plan (collective, allocation-free).
func (s *Solver) reduceMax(v float64) float64 {
	s.redBuf[0] = v
	s.red.Max(s.redBuf[:])
	return s.redBuf[0]
}
