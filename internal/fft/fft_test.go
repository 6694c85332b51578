package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128, dir Direction) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var acc complex128
		for j := 0; j < n; j++ {
			ang := 2 * math.Pi * float64(j) * float64(k) / float64(n)
			acc += x[j] * cmplx.Exp(complex(0, float64(dir)*ang))
		}
		out[k] = acc
	}
	if dir == Inverse {
		for k := range out {
			out[k] /= complex(float64(n), 0)
		}
	}
	return out
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxAbsDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

var testLengths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 17, 20, 24, 25, 27, 30, 32, 36, 45, 48, 49, 59, 60, 64, 67, 81, 96, 100, 101, 121, 125, 127, 128, 144, 169, 180, 210, 240, 243, 256, 360, 384}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range testLengths {
		p := NewPlan(n)
		x := randComplex(rng, n)
		got := make([]complex128, n)
		p.Forward(got, x)
		want := naiveDFT(x, Forward)
		tol := 1e-9 * float64(n)
		if d := maxAbsDiff(got, want); d > tol {
			t.Errorf("n=%d: forward max diff %g > %g", n, d, tol)
		}
	}
}

func TestInverseMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range testLengths {
		p := NewPlan(n)
		x := randComplex(rng, n)
		got := make([]complex128, n)
		p.Inverse(got, x)
		want := naiveDFT(x, Inverse)
		tol := 1e-9 * float64(n)
		if d := maxAbsDiff(got, want); d > tol {
			t.Errorf("n=%d: inverse max diff %g > %g", n, d, tol)
		}
	}
}

func TestRoundTripIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range testLengths {
		p := NewPlan(n)
		x := randComplex(rng, n)
		y := make([]complex128, n)
		p.Forward(y, x)
		p.Inverse(y, y) // also exercises aliasing
		if d := maxAbsDiff(y, x); d > 1e-10*float64(n) {
			t.Errorf("n=%d: round trip max diff %g", n, d)
		}
	}
}

func TestForwardAliasedInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{8, 12, 30, 67} {
		p := NewPlan(n)
		x := randComplex(rng, n)
		want := naiveDFT(x, Forward)
		p.Forward(x, x)
		if d := maxAbsDiff(x, want); d > 1e-9*float64(n) {
			t.Errorf("n=%d: in-place forward max diff %g", n, d)
		}
	}
}

func TestLinearityProperty(t *testing.T) {
	p := NewPlan(24)
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := randComplex(r, 24)
		y := randComplex(r, 24)
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		sum := make([]complex128, 24)
		for i := range sum {
			sum[i] = a*x[i] + y[i]
		}
		fx := make([]complex128, 24)
		fy := make([]complex128, 24)
		fs := make([]complex128, 24)
		p.Forward(fx, x)
		p.Forward(fy, y)
		p.Forward(fs, sum)
		for i := range fs {
			if cmplx.Abs(fs[i]-(a*fx[i]+fy[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	for _, n := range []int{16, 30, 67, 128} {
		p := NewPlan(n)
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			x := randComplex(r, n)
			y := make([]complex128, n)
			p.Forward(y, x)
			var ex, ey float64
			for i := range x {
				ex += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
				ey += real(y[i])*real(y[i]) + imag(y[i])*imag(y[i])
			}
			return math.Abs(ey/float64(n)-ex) < 1e-8*ex
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestDeltaImpulseIsFlat(t *testing.T) {
	for _, n := range []int{4, 9, 25, 31, 67} {
		p := NewPlan(n)
		x := make([]complex128, n)
		x[0] = 1
		y := make([]complex128, n)
		p.Forward(y, x)
		for k := range y {
			if cmplx.Abs(y[k]-1) > 1e-10 {
				t.Errorf("n=%d k=%d: delta transform %v != 1", n, k, y[k])
			}
		}
	}
}

func TestSingleModeSpectrum(t *testing.T) {
	n := 32
	p := NewPlan(n)
	for mode := 0; mode < n; mode += 5 {
		x := make([]complex128, n)
		for j := range x {
			x[j] = cmplx.Exp(complex(0, 2*math.Pi*float64(mode*j)/float64(n)))
		}
		y := make([]complex128, n)
		p.Forward(y, x)
		for k := range y {
			want := complex128(0)
			if k == mode {
				want = complex(float64(n), 0)
			}
			if cmplx.Abs(y[k]-want) > 1e-9 {
				t.Errorf("mode %d k %d: got %v want %v", mode, k, y[k], want)
			}
		}
	}
}

func TestRealPlanMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 2, 3, 4, 6, 8, 9, 15, 16, 17, 32, 48, 60, 64, 81, 100, 128} {
		rp := NewRealPlan(n)
		x := make([]float64, n)
		xc := make([]complex128, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			xc[i] = complex(x[i], 0)
		}
		want := naiveDFT(xc, Forward)
		got := make([]complex128, rp.HalfLen())
		rp.Forward(got, x)
		for k := 0; k < rp.HalfLen(); k++ {
			if cmplx.Abs(got[k]-want[k]) > 1e-9*float64(n) {
				t.Errorf("n=%d k=%d: got %v want %v", n, k, got[k], want[k])
			}
		}
		back := make([]float64, n)
		rp.Inverse(back, got)
		for i := range back {
			if math.Abs(back[i]-x[i]) > 1e-10*float64(n) {
				t.Errorf("n=%d i=%d: inverse %g want %g", n, i, back[i], x[i])
			}
		}
	}
}

func TestRealPlanConjugateSymmetryHandling(t *testing.T) {
	// Nyquist and DC bins carry only real information for even n; the
	// inverse must reproduce reality of the signal regardless.
	n := 16
	rp := NewRealPlan(n)
	spec := make([]complex128, rp.HalfLen())
	spec[0] = 3
	spec[n/2] = -2
	spec[3] = complex(1, -0.5)
	x := make([]float64, n)
	rp.Inverse(x, spec)
	back := make([]complex128, rp.HalfLen())
	rp.Forward(back, x)
	for k := range spec {
		if cmplx.Abs(back[k]-spec[k]) > 1e-10 {
			t.Errorf("k=%d: got %v want %v", k, back[k], spec[k])
		}
	}
}

// The inverse's contract for an imaginary part where a real signal has
// none: odd n ignores it in X[0]; even n adds −(b+d)/n to every even
// sample and (b−d)/n to every odd one for imaginary parts b of X[0] and
// d of X[n/2].
func TestRealInverseImaginaryDCAndNyquist(t *testing.T) {
	for _, n := range []int{7, 8, 48} {
		rp := NewRealPlan(n)
		spec := make([]complex128, rp.HalfLen())
		spec[1] = 1
		clean, dirty := make([]float64, n), make([]float64, n)
		rp.Inverse(clean, spec)
		b, d := 0.5, 0.25
		spec[0] = complex(0, b)
		if n%2 == 0 {
			spec[n/2] = complex(0, d)
		}
		rp.Inverse(dirty, spec)
		for j := range dirty {
			shift := 0.0
			switch {
			case n%2 == 1:
			case j%2 == 0:
				shift = -(b + d) / float64(n)
			default:
				shift = (b - d) / float64(n)
			}
			if math.Abs(dirty[j]-clean[j]-shift) > 1e-15 {
				t.Errorf("n=%d sample %d: moved by %g, want %g", n, j, dirty[j]-clean[j], shift)
			}
		}
		rp.Release()
	}
}

func TestBatchStridedLayouts(t *testing.T) {
	// Transform along the "y" axis of an nx×ny row-major array
	// (x fastest), the exact layout of the DNS y-direction FFTs.
	nx, ny := 6, 8
	rng := rand.New(rand.NewSource(7))
	src := randComplex(rng, nx*ny)
	b := NewBatch(ny, nx, nx, 1, nx, 1)
	dst := make([]complex128, nx*ny)
	b.Forward(dst, src)
	for i := 0; i < nx; i++ {
		col := make([]complex128, ny)
		for j := 0; j < ny; j++ {
			col[j] = src[j*nx+i]
		}
		want := naiveDFT(col, Forward)
		for j := 0; j < ny; j++ {
			if cmplx.Abs(dst[j*nx+i]-want[j]) > 1e-9 {
				t.Fatalf("col %d row %d mismatch", i, j)
			}
		}
	}
	// Round trip through the batch inverse.
	back := make([]complex128, nx*ny)
	b.Inverse(back, dst)
	if d := maxAbsDiff(back, src); d > 1e-10 {
		t.Errorf("batch round trip diff %g", d)
	}
}

func TestBatchContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n, hm := 12, 5
	b := NewContiguousBatch(n, hm)
	if b.Len() != n {
		t.Fatalf("batch length %d, want %d", b.Len(), n)
	}
	src := randComplex(rng, n*hm)
	dst := make([]complex128, n*hm)
	b.Forward(dst, src)
	for tI := 0; tI < hm; tI++ {
		want := naiveDFT(src[tI*n:(tI+1)*n], Forward)
		if d := maxAbsDiff(dst[tI*n:(tI+1)*n], want); d > 1e-9 {
			t.Errorf("batch %d diff %g", tI, d)
		}
	}
}

func TestRealBatchStrided(t *testing.T) {
	nx, ny := 4, 10 // transform length ny along strided axis
	rng := rand.New(rand.NewSource(9))
	src := make([]float64, nx*ny)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	rb := NewRealBatch(ny, nx, nx, 1, nx, 1)
	h := ny/2 + 1
	dst := make([]complex128, nx*h)
	rb.Forward(dst, src)
	rp := NewRealPlan(ny)
	for i := 0; i < nx; i++ {
		col := make([]float64, ny)
		for j := 0; j < ny; j++ {
			col[j] = src[j*nx+i]
		}
		want := make([]complex128, h)
		rp.Forward(want, col)
		for k := 0; k < h; k++ {
			if cmplx.Abs(dst[k*nx+i]-want[k]) > 1e-9 {
				t.Fatalf("real batch col %d bin %d mismatch", i, k)
			}
		}
	}
	back := make([]float64, nx*ny)
	rb.Inverse(back, dst)
	for i := range back {
		if math.Abs(back[i]-src[i]) > 1e-10 {
			t.Fatalf("real batch round trip i=%d", i)
		}
	}
}

func TestPlan3DRoundTripAndMode(t *testing.T) {
	n0, n1, n2 := 4, 3, 5
	p := NewPlan3D(n0, n1, n2)
	rng := rand.New(rand.NewSource(11))
	src := randComplex(rng, n0*n1*n2)
	fw := make([]complex128, len(src))
	p.Forward(fw, src)
	back := make([]complex128, len(src))
	p.Inverse(back, fw)
	if d := maxAbsDiff(back, src); d > 1e-10 {
		t.Errorf("3D round trip diff %g", d)
	}
	// A single plane wave lands in a single bin.
	m0, m1, m2 := 1, 2, 3
	for j2 := 0; j2 < n2; j2++ {
		for j1 := 0; j1 < n1; j1++ {
			for j0 := 0; j0 < n0; j0++ {
				ang := 2 * math.Pi * (float64(m0*j0)/float64(n0) + float64(m1*j1)/float64(n1) + float64(m2*j2)/float64(n2))
				src[(j2*n1+j1)*n0+j0] = cmplx.Exp(complex(0, ang))
			}
		}
	}
	p.Forward(fw, src)
	total := float64(n0 * n1 * n2)
	for idx, v := range fw {
		want := complex128(0)
		if idx == (m2*n1+m1)*n0+m0 {
			want = complex(total, 0)
		}
		if cmplx.Abs(v-want) > 1e-9*total {
			t.Errorf("3D bin %d: got %v want %v", idx, v, want)
		}
	}
}

func TestFactorize(t *testing.T) {
	cases := map[int][]int{
		1:   nil,
		2:   {2},
		8:   {4, 2},
		12:  {4, 3},
		30:  {2, 3, 5},
		49:  {7, 7},
		360: {4, 2, 3, 3, 5},
		67:  {67},
	}
	for n, want := range cases {
		got := factorize(n)
		if len(got) != len(want) {
			t.Errorf("factorize(%d) = %v want %v", n, got, want)
			continue
		}
		prod := 1
		for i, f := range got {
			prod *= f
			if f != want[i] {
				t.Errorf("factorize(%d) = %v want %v", n, got, want)
			}
		}
		if n > 1 && prod != n {
			t.Errorf("factorize(%d) product %d", n, prod)
		}
	}
}

func TestBluesteinSelectedForLargePrimes(t *testing.T) {
	if NewPlan(67).blue == nil {
		t.Error("n=67 should use Bluestein")
	}
	if NewPlan(64).blue != nil {
		t.Error("n=64 should not use Bluestein")
	}
	if NewPlan(59).blue != nil {
		t.Error("n=59 is within direct butterfly range")
	}
}

func TestPlanPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n=0")
		}
	}()
	NewPlan(0)
}

func TestPlanPanicsOnWrongSliceLength(t *testing.T) {
	p := NewPlan(8)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for short slice")
		}
	}()
	p.Forward(make([]complex128, 4), make([]complex128, 8))
}
