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
	half *Plan        // length n/2 complex plan (even n)
	full *Plan        // length n complex plan (odd n fallback)
	wr   []complex128 // wr[k] = exp(−2πi·k/n), k < n/2
	z    []complex128 // the packed half-length (or full-length) line
}

// NewRealPlan creates a real-transform plan for length n ≥ 1.
func NewRealPlan(n int) *RealPlan {
	if n < 1 {
		panic(fmt.Sprintf("fft: invalid real length %d", n))
	}
	p := &RealPlan{n: n}
	if n%2 == 1 {
		p.full = NewPlan(n)
		p.z = pool.GetComplex(n)
		return p
	}
	p.half = NewPlan(n / 2)
	// wr[k] = exp(−2πi·k/n) for k < n/2 is a prefix of the shared
	// length-n twiddle table.
	p.wr = twiddles(n)[:n/2]
	p.z = pool.GetComplex(n / 2)
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

// Forward computes the forward transform of the real sequence src
// (length n) into dst (length n/2+1), unnormalized.
func (p *RealPlan) Forward(dst []complex128, src []float64) {
	if len(src) != p.n || len(dst) != p.HalfLen() {
		panic(fmt.Sprintf("fft: real plan n=%d, got src %d dst %d", p.n, len(src), len(dst)))
	}
	p.count(1)
	p.forward(dst, 1, src, 1, p.HalfLen())
}

// Inverse computes the inverse transform (including the 1/n factor) of
// the half-spectrum src (length n/2+1) into the real sequence dst
// (length n). The k=0 and k=n/2 inputs should have zero imaginary part;
// any residual imaginary part is ignored, matching conjugate symmetry.
func (p *RealPlan) Inverse(dst []float64, src []complex128) {
	if len(dst) != p.n || len(src) != p.HalfLen() {
		panic(fmt.Sprintf("fft: real plan n=%d, got dst %d src %d", p.n, len(dst), len(src)))
	}
	p.count(1)
	p.inverse(dst, 1, src, 1, p.HalfLen())
}

// count records lines real transforms, each of which runs one complex
// transform of the half (or full) length.
func (p *RealPlan) count(lines int) {
	realTransforms.Add(int64(lines))
	transforms.Add(int64(lines))
}

// forward transforms the real line src[0], src[rs], … into the
// half-spectrum dst[0], dst[cs], …: the samples are packed in pairs
// straight from src into one complex line of half the length, that line
// is transformed in place, and the post-pass that separates the even-
// and odd-sample spectra stores straight to dst. Only the bins below kb
// (1 ≤ kb ≤ n/2+1) are formed and stored on an even length; the rest of
// dst is left as it was. Odd lengths store every bin.
//
//psdns:hotpath
func (p *RealPlan) forward(dst []complex128, cs int, src []float64, rs, kb int) {
	z := p.z
	if p.full != nil {
		for j := range z {
			z[j] = complex(src[j*rs], 0)
		}
		p.full.line(z, 1, z, 1, Forward)
		for k := 0; k < p.HalfLen(); k++ {
			dst[k*cs] = z[k]
		}
		return
	}
	h := p.n / 2
	for j := range z {
		z[j] = complex(src[2*j*rs], src[(2*j+1)*rs])
	}
	p.half.line(z, 1, z, 1, Forward)
	// X[k] = E[k] + W_n^k·O[k] with E, O the spectra of the even and odd
	// samples, recovered from Z = E + i·O by conjugate symmetry. Bins 0
	// and h both pair z[0] with itself; W_n^h = −1.
	zc := cmplx.Conj(z[0])
	xe := (z[0] + zc) * 0.5
	xo := (z[0] - zc) * complex(0, -0.5)
	dst[0] = xe + p.wr[0]*xo
	if kb > h {
		dst[h*cs] = xe + complex(-1, 0)*xo
	}
	for k, end := 1, min(kb, h); k < end; k++ {
		zk := z[k]
		zc := cmplx.Conj(z[h-k])
		xe := (zk + zc) * 0.5
		xo := (zk - zc) * complex(0, -0.5)
		dst[k*cs] = xe + p.wr[k]*xo
	}
}

// unfold is one bin of the inverse pre-pass: the half-length line's
// entry k from the half-spectrum bins xk = X[k] and xh = X[h−k], the
// exact reverse of forward's post-pass.
func (p *RealPlan) unfold(xk, xh complex128, k int) complex128 {
	xc := cmplx.Conj(xh)
	xe := (xk + xc) * 0.5
	xo := (xk - xc) * 0.5 * cmplx.Conj(p.wr[k])
	return xe + complex(0, 1)*xo
}

// inverse is the reverse of forward: half-spectrum src[0], src[cs], …
// to the real line dst[0], dst[rs], …, scaled by 1/n. On an even length
// only the bins below kb are read; the rest count as +0. The pre-pass
// is split where its two operands X[k] and X[h−k] leave the band rather
// than tested per bin: [0, lo) has X[h−k] outside, [hi, h) has X[k]
// outside, and between them both are inside (kb > h+1−kb) or both are
// outside, where the bin is +0 — unfold(0, 0, k) is +0 for every
// twiddle. The full band (kb = h+1) gives lo = 0 and hi = h: one loop
// with both operands read.
//
//psdns:hotpath
func (p *RealPlan) inverse(dst []float64, rs int, src []complex128, cs, kb int) {
	n, z := p.n, p.z
	if p.full != nil {
		z[0] = complex(real(src[0]), 0)
		for k := 1; k < p.HalfLen(); k++ {
			z[k] = src[k*cs]
			z[n-k] = cmplx.Conj(src[k*cs])
		}
		p.full.line(z, 1, z, 1, Inverse)
		for j := range z {
			dst[j*rs] = real(z[j])
		}
		return
	}
	h := n / 2
	lo, hi := min(kb, h+1-kb), min(h, max(kb, h+1-kb))
	for k := 0; k < lo; k++ {
		z[k] = p.unfold(src[k*cs], 0, k)
	}
	if kb > h+1-kb {
		for k := lo; k < hi; k++ {
			z[k] = p.unfold(src[k*cs], src[(h-k)*cs], k)
		}
	} else {
		clear(z[lo:hi])
	}
	for k := hi; k < h; k++ {
		z[k] = p.unfold(0, src[(h-k)*cs], k)
	}
	p.half.line(z, 1, z, 1, Inverse)
	for j, v := range z {
		dst[2*j*rs] = real(v)
		dst[(2*j+1)*rs] = imag(v)
	}
}
