package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// The real x pass separates the even- and odd-sample spectra with full
// complex products, and its multiplications by ±0 are not dead: they
// set the sign of the bins that come out exactly zero. On lines of
// mixed-sign zeros with a sparse ±1 — what a zero or negated field
// gives the x pass — RealPlan's forward and inverse equal, bit for bit,
// the half-length transform wrapped in the textbook post- and pre-pass
// written in complex arithmetic. The same pass written component-wise
// with those products dropped stores −0 where this stores +0 (zk = 0−0i
// and zh = 0+0i is one such bin) and fails here.
func TestRealPassKeepsSignedZeros(t *testing.T) {
	negz := math.Copysign(0, -1)
	vals := []float64{0, negz, 1, -1}
	for _, n := range []int{8, 12, 16, 48, 64} {
		h := n / 2
		p := NewRealPlan(n)
		rng := rand.New(rand.NewSource(int64(n)))
		x, back, wantBack := make([]float64, n), make([]float64, n), make([]float64, n)
		got, want := make([]complex128, h+1), make([]complex128, h+1)
		z := make([]complex128, h)
		for line := range 2000 {
			for i := range x {
				x[i] = vals[rng.Intn(2)]
				if line%2 == 1 && rng.Intn(8) == 0 {
					x[i] = vals[2+rng.Intn(2)]
				}
			}
			p.Forward(got, x)
			for j := range z {
				z[j] = complex(x[2*j], x[2*j+1])
			}
			p.half.rows(z, 1, Forward)
			for k := 0; k <= h; k++ {
				// Bins 0 and h both pair row 0 with itself; W_n^h = −1.
				zk, zc := z[k%h], cmplx.Conj(z[(h-k)%h])
				xe := (zk + zc) * 0.5
				xo := (zk - zc) * complex(0, -0.5)
				w := complex(-1, 0)
				if k < h {
					w = p.wr[k]
				}
				want[k] = xe + w*xo
			}
			for k := range want {
				if !bitsEqual(got[k], want[k]) {
					t.Fatalf("n=%d line %d: forward bin %d = %v, the complex post-pass gives %v", n, line, k, got[k], want[k])
				}
			}

			p.Inverse(back, got)
			for k := range z {
				xc := cmplx.Conj(got[h-k])
				xe := (got[k] + xc) * 0.5
				xo := (got[k] - xc) * 0.5 * cmplx.Conj(p.wr[k])
				z[k] = xe + complex(0, 1)*xo
			}
			p.half.rows(z, 1, Inverse)
			for j, v := range z {
				wantBack[2*j], wantBack[2*j+1] = real(v), imag(v)
			}
			for j := range back {
				if math.Float64bits(back[j]) != math.Float64bits(wantBack[j]) {
					t.Fatalf("n=%d line %d: inverse sample %d = %v, the complex pre-pass gives %v", n, line, j, back[j], wantBack[j])
				}
			}
		}
		p.Release()
	}
}
