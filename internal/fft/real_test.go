package fft

import "fmt"

// The single-line real plan: what the tests drive the real x pass
// through one line at a time (RealBatch runs it in tiles).

// NewRealPlan creates a real-transform plan for length n ≥ 1.
func NewRealPlan(n int) *RealPlan { return newRealPlan(n, 1) }

// Forward computes the forward transform of the real sequence src
// (length n) into dst (length n/2+1), unnormalized.
func (p *RealPlan) Forward(dst []complex128, src []float64) {
	if len(src) != p.n || len(dst) != p.HalfLen() {
		panic(fmt.Sprintf("fft: real plan n=%d, got src %d dst %d", p.n, len(src), len(dst)))
	}
	p.count(1)
	p.forward(dst, 1, 0, src, 1, 0, p.HalfLen(), 1)
}

// Inverse computes the inverse transform (including the 1/n factor) of
// the half-spectrum src (length n/2+1) into the real sequence dst
// (length n). A real signal's X[0], and X[n/2] on an even n, are real.
// What happens to an imaginary part there depends on the parity. Odd n
// ignores the imaginary part of X[0] (and has no bin n/2). Even n does
// not: the pre-pass folds X[0] and X[n/2] into one complex value, so
// imaginary parts b of X[0] and d of X[n/2] add −(b+d)/n to every even
// sample and (b−d)/n to every odd one.
func (p *RealPlan) Inverse(dst []float64, src []complex128) {
	if len(dst) != p.n || len(src) != p.HalfLen() {
		panic(fmt.Sprintf("fft: real plan n=%d, got dst %d src %d", p.n, len(dst), len(src)))
	}
	p.count(1)
	p.inverse(dst, 1, 0, src, 1, 0, p.HalfLen(), 1)
}
