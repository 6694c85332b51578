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
// check instead of an index panic inside a kernel. The seed corpus is
// testdata/fuzz/FuzzBatchLayout.
func FuzzBatchLayout(f *testing.F) {
	f.Fuzz(func(t *testing.T, n, howmany, istride, idist, ostride, odist int, inverse, inPlace bool, seed int64) {
		n, howmany = into(n, 1, 130), into(howmany, 0, 40)
		istride, idist = into(istride, 1, 12), into(idist, 0, 64)
		ostride, odist = disjoint(n, howmany, into(ostride, 1, 12), into(odist, 0, 64))
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
