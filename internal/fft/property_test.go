package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: Forward and Inverse are mutual inverses for arbitrary
// lengths (including Bluestein territory) and arbitrary data.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		p := NewPlan(n)
		x := randComplex(rng, n)
		y := make([]complex128, n)
		p.Forward(y, x)
		p.Inverse(y, y)
		return maxAbsDiff(y, x) < 1e-8*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the shift theorem — a circular shift by s multiplies bin k
// by exp(−2πi·ks/n).
func TestShiftTheoremProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		s := rng.Intn(n)
		p := NewPlan(n)
		x := randComplex(rng, n)
		shifted := make([]complex128, n)
		for j := range shifted {
			shifted[j] = x[(j+s)%n]
		}
		fx := make([]complex128, n)
		fs := make([]complex128, n)
		p.Forward(fx, x)
		p.Forward(fs, shifted)
		for k := 0; k < n; k++ {
			ph := cmplx.Exp(complex(0, 2*math.Pi*float64(k*s)/float64(n)))
			if cmplx.Abs(fs[k]-fx[k]*ph) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: convolution theorem — pointwise product of spectra equals
// the spectrum of the circular convolution.
func TestConvolutionTheoremProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		p := NewPlan(n)
		x := randComplex(rng, n)
		y := randComplex(rng, n)
		conv := make([]complex128, n)
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				conv[k] += x[j] * y[(k-j+n)%n]
			}
		}
		fx := make([]complex128, n)
		fy := make([]complex128, n)
		fc := make([]complex128, n)
		p.Forward(fx, x)
		p.Forward(fy, y)
		p.Forward(fc, conv)
		for k := 0; k < n; k++ {
			if cmplx.Abs(fc[k]-fx[k]*fy[k]) > 1e-6*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: real-plan output satisfies conjugate symmetry implicitly —
// reconstructing the full spectrum and inverse-transforming through
// the complex plan reproduces the real signal.
func TestRealPlanConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 * (1 + rng.Intn(40))
		rp := NewRealPlan(n)
		cp := NewPlan(n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		half := make([]complex128, rp.HalfLen())
		rp.Forward(half, x)
		full := make([]complex128, n)
		full[0] = half[0]
		for k := 1; k < rp.HalfLen(); k++ {
			full[k] = half[k]
			if k != n/2 {
				full[n-k] = cmplx.Conj(half[k])
			}
		}
		back := make([]complex128, n)
		cp.Inverse(back, full)
		for i := range x {
			if math.Abs(real(back[i])-x[i]) > 1e-9 || math.Abs(imag(back[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: batch execution with arbitrary valid strides equals
// transform-by-transform execution.
func TestBatchEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		hm := 1 + rng.Intn(5)
		// Interleaved layout: stride hm, dist 1.
		src := randComplex(rng, n*hm)
		b := NewBatch(n, hm, hm, 1, hm, 1)
		dst := make([]complex128, n*hm)
		b.Forward(dst, src)
		p := NewPlan(n)
		one := make([]complex128, n)
		out := make([]complex128, n)
		for tIdx := 0; tIdx < hm; tIdx++ {
			for j := 0; j < n; j++ {
				one[j] = src[tIdx+j*hm]
			}
			p.Forward(out, one)
			for k := 0; k < n; k++ {
				if cmplx.Abs(dst[tIdx+k*hm]-out[k]) > 1e-10 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// The stage programs map an all-(+0) line to an all-(+0) line, in both
// directions and both forms: the first input of every butterfly enters
// untwiddled, so each output is (+0) ± (±0). The band-limited engines
// rest on it — the lines they skip are lines whose result is known to
// the bit (DESIGN §9). Bluestein lengths make no such promise.
func TestZeroLineStaysPlusZero(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 12, 16, 22, 26, 48, 60, 64, 70, 122, 128} {
		for _, howmany := range []int{1, 7} { // line form, plane form
			b := NewBatch(n, howmany, howmany, 1, howmany, 1)
			if b.p.prog == nil {
				t.Fatalf("n=%d is not a stage-program length", n)
			}
			for _, dir := range []Direction{Forward, Inverse} {
				buf := make([]complex128, n*howmany)
				b.exec(buf, buf, dir)
				for i, v := range buf {
					if math.Float64bits(real(v)) != 0 || math.Float64bits(imag(v)) != 0 {
						t.Fatalf("n=%d howmany=%d dir=%d: element %d of a zero line is %v (sign bits %v, %v)",
							n, howmany, dir, i, v, math.Signbit(real(v)), math.Signbit(imag(v)))
					}
				}
			}
			b.Release()
		}
	}
}
