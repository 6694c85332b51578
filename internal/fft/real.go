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
// as one complex value, two lines at a time on the vector path and one
// at a time in Go — either way line by line, so the caller's samples
// arrive in address order, which out of cache beats a row-at-a-time
// walk of w streams (N = 64 r2c 305 → 248 ns per line over a cold slab,
// 2-vCPU x86); the half-length program transforms the block's h = n/2
// rows of w in place; and the post-pass that separates the even- and
// odd-sample spectra walks it a row pair at a time, storing bins [0, kb)
// (1 ≤ kb ≤ h+1) of every line straight to dst and leaving the rest as
// it was. w = 1 is the single line. An odd length transforms line by
// line at full length and stores every bin.
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
	pack(z, w, h, src, rs, rd)
	p.half.rows(z, w, Forward)
	p.postPass(dst, cs, cd, z, kb, w)
}

// postPass separates the transformed tile z of w lines into bins
// [0, kb) of their half-spectra, dst[t·cd + k·cs]. Bins 0 and h both
// pair row 0 with itself; W_n^h = −1.
func (p *RealPlan) postPass(dst []complex128, cs, cd int, z []complex128, kb, w int) {
	h := p.n / 2
	post(dst, cs, cd, z, w, 0, 0, 1, p.wr[:1])
	if kb > h {
		post(dst[h*cs:], cs, cd, z, w, 0, 0, 1, minusOne[:])
	}
	if end := min(kb, h); end > 1 {
		post(dst[cs:], cs, cd, z, w, 1, h-1, end-1, p.wr[1:end])
	}
}

// minusOne is W_n^h, exactly: the table's entry h carries a rounding
// error in its imaginary part.
var minusOne = [1]complex128{-1}

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
	p.prePass(z, src, cs, cd, kb, w)
	p.half.rows(z, w, Inverse)
	unpack(dst, rs, rd, z, w, h)
}

// prePass folds bins [0, kb) of w half-spectra, src[t·cd + k·cs], into
// the tile z that the half-length inverse transforms. Rows below lo
// read X[k] and rows from hi on read X[h−k]: the cuts split [0, h) into
// at most three runs of rows that read the same operands.
func (p *RealPlan) prePass(z, src []complex128, cs, cd, kb, w int) {
	h := p.n / 2
	lo, hi := min(kb, h), max(h+1-kb, 0)
	cuts := [4]int{0, min(lo, hi), max(lo, hi), h}
	for i := range 3 {
		k, end := cuts[i], cuts[i+1]
		switch inK, inH := k < lo, k >= hi; {
		case k == end:
		case inK || inH:
			unfoldRows(z, w, src, cs, cd, k, h-k, end-k, p.wr[k:end], inK, inH)
		default:
			clear(z[k*w : end*w])
		}
	}
}

// The real pass's plane bodies over a tile z of h rows of w lines.
// pack, post, unfoldRows and unpack (vector_amd64.go, vector_other.go)
// run vector kernels where they can and these Go bodies otherwise; the
// tests compare the two.

// packGo gathers sample pair (2j, 2j+1) of line t, src[t·rd + 2j·rs]
// and src[t·rd + (2j+1)·rs], into z[j·w + t] for j < h and t < w.
func packGo(z []complex128, w, h int, src []float64, rs, rd int) {
	for t := 0; t < w; t++ {
		s := src[t*rd:]
		for j := 0; j < h; j++ {
			z[j*w+t] = complex(s[2*j*rs], s[(2*j+1)*rs])
		}
	}
}

// postGo is the forward post-pass over rows r < rows: with zk from row
// k+r of z and zh from row kh−r, it stores bin X = E + wr[r]·O of line
// t to dst[t·cd + r·cs], where E = (zk + conj(zh))/2 and
// O = −i·(zk − conj(zh))/2 are the even- and odd-sample spectra
// recovered from Z = E + i·O by conjugate symmetry.
func postGo(dst []complex128, cs, cd int, z []complex128, w, k, kh, rows int, wr []complex128) {
	for r := 0; r < rows; r++ {
		wk, zk, zh := wr[r], z[(k+r)*w:][:w], z[(kh-r)*w:][:w]
		for t := range zk {
			zc := cmplx.Conj(zh[t])
			xe := (zk[t] + zc) * 0.5
			xo := (zk[t] - zc) * complex(0, -0.5)
			dst[t*cd+r*cs] = xe + wk*xo
		}
	}
}

// unfoldRowsGo is the inverse pre-pass over rows r < rows: row k+r of z
// from X[k+r] = src[(k+r)·cs + t·cd] if inK and X[kh−r] =
// src[(kh−r)·cs + t·cd] if inH, an operand left out counting as +0, and
// the conjugate of wr[r].
func unfoldRowsGo(z []complex128, w int, src []complex128, cs, cd, k, kh, rows int, wr []complex128, inK, inH bool) {
	for r := 0; r < rows; r++ {
		zk, xk, xh, wc := z[(k+r)*w:][:w], src[(k+r)*cs:], src[(kh-r)*cs:], cmplx.Conj(wr[r])
		switch {
		case inK && inH:
			for t := range zk {
				zk[t] = unfold(xk[t*cd], xh[t*cd], wc)
			}
		case inK:
			for t := range zk {
				zk[t] = unfold(xk[t*cd], 0, wc)
			}
		default:
			for t := range zk {
				zk[t] = unfold(0, xh[t*cd], wc)
			}
		}
	}
}

// unpackGo scatters z[j·w + t] to samples 2j and 2j+1 of line t,
// dst[t·rd + 2j·rs] and dst[t·rd + (2j+1)·rs], the reverse of packGo.
func unpackGo(dst []float64, rs, rd int, z []complex128, w, h int) {
	for t := 0; t < w; t++ {
		d := dst[t*rd:]
		for j := 0; j < h; j++ {
			v := z[j*w+t]
			d[2*j*rs] = real(v)
			d[(2*j+1)*rs] = imag(v)
		}
	}
}
