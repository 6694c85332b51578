package fft

import (
	"math/cmplx"

	"repro/internal/pool"
)

// bluestein implements the chirp-z method for transform lengths whose
// prime factors are too large for direct butterflies. The length-n DFT
// is re-expressed as a circular convolution of length m (a power of two
// ≥ 2n−1), which is evaluated with the radix-2/4 machinery. The chirp
// and its precomputed FFT are read-only and shared across all plans of
// the same length via the package table cache; only the two scratch
// lines are per-plan.
type bluestein struct {
	n    int
	m    int
	pm   *Plan        // power-of-two plan of length m
	w    []complex128 // shared: w[j] = exp(−iπ·j²/n), forward chirp
	fb   []complex128 // shared: FFT of the padded conjugate chirp
	ax   []complex128 // scratch, length m
	conv []complex128 // scratch, length m
}

func newBluestein(n int) *bluestein {
	t := blueTablesFor(n)
	b := &bluestein{n: n, m: t.m, w: t.w, fb: t.fb}
	b.pm = NewPlan(b.m)
	b.ax = pool.GetComplex(b.m)
	b.conv = pool.GetComplex(b.m)
	return b
}

// release returns the per-plan scratch to the buffer arena; the shared
// chirp tables stay cached.
func (b *bluestein) release() {
	b.pm.Release()
	pool.PutComplex(b.ax)
	pool.PutComplex(b.conv)
	b.ax, b.conv = nil, nil
}

// transform computes the DFT of src[0], src[is], … into dst[0], dst[os],
// …, including the 1/n factor of the inverse. dst and src may alias.
func (b *bluestein) transform(dst []complex128, os int, src []complex128, is int, dir Direction) {
	n, m := b.n, b.m
	for j := 0; j < n; j++ {
		x := src[j*is]
		if dir == Inverse {
			x = cmplx.Conj(x)
		}
		b.ax[j] = x * b.w[j]
	}
	for j := n; j < m; j++ {
		b.ax[j] = 0
	}
	b.pm.Forward(b.conv, b.ax)
	for j := 0; j < m; j++ {
		b.conv[j] *= b.fb[j]
	}
	b.pm.Inverse(b.ax, b.conv)
	sc := complex(1/float64(n), 0)
	for k := 0; k < n; k++ {
		y := b.ax[k] * b.w[k]
		if dir == Inverse {
			y = cmplx.Conj(y) * sc
		}
		dst[k*os] = y
	}
}
