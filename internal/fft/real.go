package fft

import (
	"fmt"
	"math/cmplx"

	"repro/internal/pool"
)

// RealPlan transforms real sequences of length n to their n/2+1
// non-redundant complex Fourier coefficients and back, exploiting the
// conjugate symmetry X[n−k] = conj(X[k]) of real data — the same
// symmetry the DNS uses for its complex-to-real x-direction transforms.
type RealPlan struct {
	n    int
	half *Plan        // length n/2 complex plan, its block n/2 rows of the tile width (even n)
	full *Plan        // length n complex plan (odd n fallback)
	wr   []complex128 // wr[k] = exp(−2πi·k/n), k < n/2
	z    []complex128 // the packed tile, n/2 rows of the tile width (even n); one line (odd n)
}

// newRealPlan creates a real-transform plan that runs tiles of up to w
// lines (even n; odd n runs one line at a time).
func newRealPlan(n, w int) *RealPlan {
	if n < 1 {
		panic(fmt.Sprintf("fft: invalid real length %d", n))
	}
	p := &RealPlan{n: n}
	if n%2 == 1 {
		p.full = NewPlan(n)
		p.z = pool.GetComplex(n)
		return p
	}
	p.half = newPlan(n/2, w)
	// wr[k] = exp(−2πi·k/n) for k < n/2 is a prefix of the shared
	// length-n twiddle table.
	p.wr = twiddles(n)[:n/2]
	p.z = pool.GetComplex(n / 2 * w)
	return p
}

// Release returns the plan's scratch buffers to the process buffer
// arena. The plan must not be used afterwards.
func (p *RealPlan) Release() {
	if p.full != nil {
		p.full.Release()
	}
	if p.half != nil {
		p.half.Release()
	}
	pool.PutComplex(p.z)
	p.z = nil
}

// Len reports the real length n of the plan.
func (p *RealPlan) Len() int { return p.n }

// HalfLen reports the number of non-redundant complex outputs, n/2+1.
func (p *RealPlan) HalfLen() int { return p.n/2 + 1 }

// count records lines real transforms, each of which runs one complex
// transform of the half (or full) length.
func (p *RealPlan) count(lines int) {
	realTransforms.Add(int64(lines))
	transforms.Add(int64(lines))
}

// forward transforms the w real lines src[t·rd + j·rs] into the
// half-spectra dst[t·cd + k·cs], t < w, w at most the plan's tile width.
// An even length runs the tile in plane form: the pack gathers sample
// pair (2j, 2j+1) of every line t into row j of the block, z[j·w + t],
// as one complex value; the half-length program transforms the block's
// h = n/2 rows of w in place; and the post-pass that separates the
// even- and odd-sample spectra walks it a row pair at a time, storing
// bins [0, kb) (1 ≤ kb ≤ h+1) of every line straight to dst and leaving
// the rest as it was. w = 1 is the single line. An odd length transforms
// line by line at full length and stores every bin.
//
//psdns:hotpath
func (p *RealPlan) forward(dst []complex128, cs, cd int, src []float64, rs, rd, kb, w int) {
	if p.full != nil {
		z := p.z
		for t := 0; t < w; t++ {
			d, s := dst[t*cd:], src[t*rd:]
			for j := range z {
				z[j] = complex(s[j*rs], 0)
			}
			p.full.line(z, 1, z, 1, Forward)
			for k := 0; k < p.HalfLen(); k++ {
				d[k*cs] = z[k]
			}
		}
		return
	}
	h := p.n / 2
	z := p.z[:h*w]
	// Line by line: the caller's samples arrive in address order, which
	// out of cache beats a row-at-a-time walk of w streams (N = 64 r2c
	// 305 → 248 ns per line over a cold slab, 2-vCPU x86).
	for t := 0; t < w; t++ {
		s := src[t*rd:]
		for j := 0; j < h; j++ {
			z[j*w+t] = complex(s[2*j*rs], s[(2*j+1)*rs])
		}
	}
	p.half.rows(z, w, Forward)
	// X[k] = E[k] + W_n^k·O[k] with E, O the spectra of the even and odd
	// samples, recovered from Z = E + i·O by conjugate symmetry. Bins 0
	// and h both pair row 0 with itself; W_n^h = −1.
	for t, z0 := range z[:w] {
		zc := cmplx.Conj(z0)
		xe := (z0 + zc) * 0.5
		xo := (z0 - zc) * complex(0, -0.5)
		dst[t*cd] = xe + p.wr[0]*xo
		if kb > h {
			dst[t*cd+h*cs] = xe + complex(-1, 0)*xo
		}
	}
	for k, end := 1, min(kb, h); k < end; k++ {
		wk, zk, zh := p.wr[k], z[k*w:][:w], z[(h-k)*w:][:w]
		for t := range zk {
			zc := cmplx.Conj(zh[t])
			xe := (zk[t] + zc) * 0.5
			xo := (zk[t] - zc) * complex(0, -0.5)
			dst[t*cd+k*cs] = xe + wk*xo
		}
	}
}

// unfold is one bin of the inverse pre-pass: the half-length line's
// entry k from the half-spectrum bins xk = X[k] and xh = X[h−k] and the
// conjugate twiddle wc = conj(W_n^k), the exact reverse of forward's
// post-pass.
func unfold(xk, xh, wc complex128) complex128 {
	xc := cmplx.Conj(xh)
	xe := (xk + xc) * 0.5
	xo := (xk - xc) * 0.5 * wc
	return xe + complex(0, 1)*xo
}

// inverse is the reverse of forward: the w half-spectra src[t·cd + k·cs]
// to the real lines dst[t·rd + j·rs], scaled by 1/n. On an even length
// only the bins below kb are read and the rest count as +0: row k of the
// pre-pass reads X[k] if k < kb and X[h−k] if h−k < kb, and a row with
// both outside is +0 — unfold(0, 0, wc) is +0 for every twiddle. The full
// band (kb = h+1) reads both operands on every row.
//
//psdns:hotpath
func (p *RealPlan) inverse(dst []float64, rs, rd int, src []complex128, cs, cd, kb, w int) {
	n := p.n
	if p.full != nil {
		z := p.z
		for t := 0; t < w; t++ {
			d, s := dst[t*rd:], src[t*cd:]
			z[0] = complex(real(s[0]), 0)
			for k := 1; k < p.HalfLen(); k++ {
				z[k] = s[k*cs]
				z[n-k] = cmplx.Conj(s[k*cs])
			}
			p.full.line(z, 1, z, 1, Inverse)
			for j := range z {
				d[j*rs] = real(z[j])
			}
		}
		return
	}
	h := n / 2
	z := p.z[:h*w]
	for k := 0; k < h; k++ {
		zk, xk, xh, wc := z[k*w:][:w], src[k*cs:], src[(h-k)*cs:], cmplx.Conj(p.wr[k])
		switch inK, inH := k < kb, h-k < kb; {
		case inK && inH:
			for t := range zk {
				zk[t] = unfold(xk[t*cd], xh[t*cd], wc)
			}
		case inK:
			for t := range zk {
				zk[t] = unfold(xk[t*cd], 0, wc)
			}
		case inH:
			for t := range zk {
				zk[t] = unfold(0, xh[t*cd], wc)
			}
		default:
			clear(zk)
		}
	}
	p.half.rows(z, w, Inverse)
	for t := 0; t < w; t++ {
		d := dst[t*rd:]
		for j := 0; j < h; j++ {
			v := z[j*w+t]
			d[2*j*rs] = real(v)
			d[(2*j+1)*rs] = imag(v)
		}
	}
}
