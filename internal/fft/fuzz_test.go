package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"
)

// dftOracle is the O(n²) definition of the transform, sharing nothing
// with the package: the phase of each term is reduced mod n before the
// exponential so its accuracy does not degrade with j·k.
func dftOracle(x []complex128, dir Direction) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := range out {
		for j, v := range x {
			ang := float64(dir) * 2 * math.Pi * float64(j*k%n) / float64(n)
			out[k] += v * cmplx.Exp(complex(0, ang))
		}
		if dir == Inverse {
			out[k] /= complex(float64(n), 0)
		}
	}
	return out
}

// into maps any int into [lo, hi], leaving values already inside alone
// so the seed corpus reads as the layouts it names.
func into(v, lo, hi int) int {
	if v < lo || v > hi {
		if v < 0 {
			v = -(v + 1)
		}
		v = lo + v%(hi-lo+1)
	}
	return v
}

// disjoint widens (stride, dist) to the nearest layout whose howmany
// lines of n elements share no element: either each line ends before
// the next begins, or the lines interleave inside one stride.
func disjoint(n, howmany, stride, dist int) (int, int) {
	switch {
	case howmany == 0, dist >= (n-1)*stride+1, dist >= 1 && stride >= (howmany-1)*dist+1:
	case dist <= stride:
		dist = max(dist, 1)
		stride += (howmany - 1) * dist
	default:
		dist += (n - 1) * stride
	}
	return stride, dist
}

// mustPanicFFT runs f and fails unless it panics with one of the
// package's own messages.
func mustPanicFFT(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.HasPrefix(msg, "fft:") {
			t.Fatalf("%s: recovered %q, want a panic starting \"fft:\"", what, msg)
		}
	}()
	f()
}

// FuzzBatchLayout checks any batch layout against the oracle: every
// line of the output within 1e-12·n·‖x‖ of the definition, and a
// buffer one element short of the layout rejected by the package's own
// check instead of an index panic inside a kernel. The same layout, as
// the real and half-spectrum sides of a real batch band-limited to kb
// bins, runs through checkBandRealLayout. The seed corpus is
// testdata/fuzz/FuzzBatchLayout.
func FuzzBatchLayout(f *testing.F) {
	f.Fuzz(func(t *testing.T, n, howmany, istride, idist, ostride, odist int, inverse, inPlace bool, seed int64, kb int) {
		// Lengths reach the real batch's Bluestein halves (134, 146) and
		// widths its two-tile N = 128 x pass.
		n, howmany = into(n, 1, 150), into(howmany, 0, 80)
		istride, idist = into(istride, 1, 12), into(idist, 0, 64)
		ostride, odist = into(ostride, 1, 12), into(odist, 0, 64)
		checkBandRealLayout(t, n, into(kb, 1, n/2+1), howmany, istride, idist, ostride, odist, inverse, seed)
		ostride, odist = disjoint(n, howmany, ostride, odist)
		if inPlace {
			istride, idist = ostride, odist
		}
		dir := Forward
		if inverse {
			dir = Inverse
		}
		span := func(stride, dist int) int {
			if howmany == 0 {
				return 0
			}
			return (howmany-1)*dist + (n-1)*stride + 1
		}
		rng := rand.New(rand.NewSource(seed))
		src := randComplex(rng, span(istride, idist))
		dst := make([]complex128, span(ostride, odist))
		// The oracle reads its lines before the batch runs: in place, the
		// batch overwrites them.
		want := make([][]complex128, howmany)
		norm := make([]float64, howmany)
		line := make([]complex128, n)
		for l := range want {
			for j := range line {
				line[j] = src[l*idist+j*istride]
				norm[l] += real(line[j])*real(line[j]) + imag(line[j])*imag(line[j])
			}
			want[l] = dftOracle(line, dir)
		}
		b := NewBatch(n, howmany, istride, idist, ostride, odist)
		defer b.Release()
		if howmany > 0 {
			mustPanicFFT(t, "short dst", func() { b.exec(dst[:len(dst)-1], src, dir) })
			mustPanicFFT(t, "short src", func() { b.exec(dst, src[:len(src)-1], dir) })
		}
		if inPlace {
			dst = src
		}
		b.exec(dst, src, dir)
		for l := range want {
			tol := 1e-12 * float64(n) * math.Sqrt(norm[l])
			for k, w := range want[l] {
				if got := dst[l*odist+k*ostride]; !(cmplx.Abs(got-w) <= tol) {
					t.Fatalf("n=%d howmany=%d in (%d,%d) out (%d,%d) dir=%d inPlace=%v: line %d bin %d: got %v, oracle %v (tol %g)",
						n, howmany, istride, idist, ostride, odist, dir, inPlace, l, k, got, w, tol)
				}
			}
		}
	})
}

// checkBandRealLayout checks a real batch band-limited to kb bins on the
// layout (rstride, rdist) × (cstride, cdist), each widened to disjoint
// lines, against the O(n²) oracle. Forward: bins below kb within
// 1e-12·n·‖x‖ of the definition, every other element of dst untouched.
// Inverse: a Hermitian spectrum holding NaN past the band transforms to
// the oracle's inverse of that spectrum with zeros there. Odd n ignores
// the band. A buffer one element short is rejected by the package.
func checkBandRealLayout(t *testing.T, n, kb, howmany, rstride, rdist, cstride, cdist int, inverse bool, seed int64) {
	h := n/2 + 1
	if n%2 == 1 {
		kb = h
	}
	rstride, rdist = disjoint(n, howmany, rstride, rdist)
	cstride, cdist = disjoint(h, howmany, cstride, cdist)
	rlen, clen := 0, 0
	if howmany > 0 {
		rlen, clen = lineSpan(howmany, n, rstride, rdist), lineSpan(howmany, h, cstride, cdist)
	}
	rng := rand.New(rand.NewSource(seed))
	re, sp := make([]float64, rlen), make([]complex128, clen)
	b := NewBandRealBatch(n, kb, howmany, rstride, rdist, cstride, cdist)
	defer b.Release()
	if howmany > 0 {
		mustPanicFFT(t, "short real side", func() { b.Forward(sp, re[:rlen-1]) })
		mustPanicFFT(t, "short half-spectrum", func() { b.Inverse(re, sp[:clen-1]) })
	}
	line := make([]complex128, n)
	if !inverse {
		for i := range re {
			re[i] = rng.NormFloat64()
		}
		for i := range sp {
			sp[i] = sentinel
		}
		b.Forward(sp, re)
		for l := 0; l < howmany; l++ {
			norm := 0.0
			for j := range line {
				v := re[l*rdist+j*rstride]
				line[j], norm = complex(v, 0), norm+v*v
			}
			want, tol := dftOracle(line, Forward), 1e-12*float64(n)*math.Sqrt(norm)
			for k := 0; k < h; k++ {
				got := sp[l*cdist+k*cstride]
				if k < kb && !(cmplx.Abs(got-want[k]) <= tol) || k >= kb && !bitsEqual(got, sentinel) {
					t.Fatalf("real n=%d kb=%d howmany=%d real (%d,%d) spectrum (%d,%d) forward: line %d bin %d: got %v, oracle %v (tol %g)",
						n, kb, howmany, rstride, rdist, cstride, cdist, l, k, got, want[k], tol)
				}
			}
		}
		return
	}
	for i := range sp {
		sp[i] = complex(math.NaN(), math.NaN())
	}
	want, tol := make([][]complex128, howmany), make([]float64, howmany)
	for l := range want {
		clear(line)
		norm := 0.0
		for k := 0; k < kb; k++ {
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			if k == 0 || 2*k == n {
				v = complex(real(v), 0)
			}
			sp[l*cdist+k*cstride] = v
			line[k], line[(n-k)%n] = v, cmplx.Conj(v)
			norm += real(v)*real(v) + imag(v)*imag(v)
		}
		want[l], tol[l] = dftOracle(line, Inverse), 1e-12*float64(n)*math.Sqrt(norm)
	}
	b.Inverse(re, sp)
	for l := range want {
		for j, w := range want[l] {
			if got := re[l*rdist+j*rstride]; !(math.Abs(got-real(w)) <= tol[l]) {
				t.Fatalf("real n=%d kb=%d howmany=%d real (%d,%d) spectrum (%d,%d) inverse: line %d sample %d: got %v, oracle %v (tol %g)",
					n, kb, howmany, rstride, rdist, cstride, cdist, l, j, got, real(w), tol[l])
			}
		}
	}
}
