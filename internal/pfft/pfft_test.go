package pfft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/exchange"
	"repro/internal/fft"
	"repro/internal/mpi"
)

func TestSlabRealRoundTrip(t *testing.T) {
	n, p := 8, 2
	mpi.Run(p, func(c *mpi.Comm) {
		f := NewSlabRealStrategy(c, n, 1, exchange.Auto)
		rng := rand.New(rand.NewSource(int64(c.Rank()) + 9))
		phys := make([]float64, f.PhysicalLen())
		for i := range phys {
			phys[i] = rng.NormFloat64()
		}
		orig := make([]float64, len(phys))
		copy(orig, phys)
		four := make([]complex128, f.FourierLen())
		f.PhysicalToFourier(four, phys)
		back := make([]float64, f.PhysicalLen())
		f.FourierToPhysical(back, four)
		for i := range back {
			if math.Abs(back[i]-orig[i]) > 1e-9 {
				t.Fatalf("rank %d element %d: %g vs %g", c.Rank(), i, back[i], orig[i])
			}
		}
	})
}

// The half-spectrum of SlabReal must equal the first nxh x-bins of the
// full complex spectrum of the same real field — here the naive DFT
// sums of the oracle, which share no code with internal/fft — and its
// inverse must return the oracle's inverse of that spectrum.
func TestSlabRealMatchesComplexTransform(t *testing.T) {
	const n, p = 8, 2
	checkAgainstOracle(t, "slab P=2", naiveOracle(n), p, 1e-12, func(c *mpi.Comm) *SlabReal {
		return NewSlabRealStrategy(c, n, 1, exchange.Auto)
	})
}

// Physical-space energy equals (1/N³)·Σ|û|² over the full spectrum,
// with û from the unnormalized forward transform — checked with a
// distributed sum over the half-spectrum, each kx with 0 < kx < N/2
// weighted twice for its conjugate twin at −kx.
func TestSlabParsevalAcrossRanks(t *testing.T) {
	n, p := 8, 4
	mpi.Run(p, func(c *mpi.Comm) {
		f := NewSlabRealStrategy(c, n, 1, exchange.Auto)
		defer f.Close()
		rng := rand.New(rand.NewSource(int64(c.Rank()) + 17))
		phys := make([]float64, f.PhysicalLen())
		var ePhys float64
		for i := range phys {
			phys[i] = rng.NormFloat64()
			ePhys += phys[i] * phys[i]
		}
		four := make([]complex128, f.FourierLen())
		f.PhysicalToFourier(four, phys)
		nxh := n/2 + 1
		var eFour float64
		for i, v := range four {
			w := 2.0
			if kx := i % nxh; kx == 0 || kx == n/2 {
				w = 1
			}
			eFour += w * (real(v)*real(v) + imag(v)*imag(v))
		}
		sums := []float64{ePhys, eFour}
		mpi.AllreduceSum(c, sums)
		n3 := float64(n * n * n)
		if math.Abs(sums[1]/n3-sums[0]) > 1e-8*sums[0] {
			t.Errorf("rank %d: Parseval violated: phys %g four/N³ %g", c.Rank(), sums[0], sums[1]/n3)
		}
	})
}

// forwardGlobal runs build's engine on p ranks over the real field
// pencilField and gathers its forward spectrum, indexed
// (gz·N + gy)·Nxh + gx, from C: the tail past it holds no mode.
func forwardGlobal(t *testing.T, n, p int, build func(c *mpi.Comm) *SlabReal) []complex128 {
	t.Helper()
	nxh := n/2 + 1
	out := make([]complex128, n*n*nxh)
	var mu sync.Mutex
	if err := mpi.TryRun(p, func(c *mpi.Comm) {
		f := build(c)
		defer f.Close()
		l := testLayout(f)
		phys := make([]float64, f.PhysicalLen())
		for i := range phys {
			phys[i] = pencilField(n, i%n, l.YRank*l.My+i/n/l.Mz, l.ZRank*l.Mz+i/n%l.Mz)
		}
		four := make([]complex128, f.FourierLen())
		f.PhysicalToFourier(four, phys)
		mu.Lock()
		defer mu.Unlock()
		for i, v := range four[:l.CLen()] {
			iz, gy, ix := i/l.Wc/n, i/l.Wc%n, i%l.Wc
			out[((l.YRank*l.Mz2+iz)*n+gy)*nxh+l.XLo+ix] = v
		}
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// The same global field transformed by the slab engine on 2 ranks and
// the pencil engine on a 2×2 grid must give identical spectra, and
// both the local complex 3-D plan's.
func TestSlabAndPencilAgree(t *testing.T) {
	const n = 8
	nxh := n/2 + 1
	global := make([]complex128, n*n*n)
	for iz := 0; iz < n; iz++ {
		for iy := 0; iy < n; iy++ {
			for ix := 0; ix < n; ix++ {
				global[(iz*n+iy)*n+ix] = complex(pencilField(n, ix, iy, iz), 0)
			}
		}
	}
	ref := make([]complex128, len(global))
	fft.NewPlan3D(n, n, n).Forward(ref, global)

	slab := forwardGlobal(t, n, 2, func(c *mpi.Comm) *SlabReal { return NewSlabRealStrategy(c, n, 1, exchange.Auto) })
	pencil := forwardGlobal(t, n, 4, func(c *mpi.Comm) *SlabReal {
		row, col := c.CartGrid(2, 2)
		return NewPencilReal(col, row, n, 1, exchange.Both(exchange.Fused))
	})
	for i := range slab {
		gz, gy, gx := i/nxh/n, i/nxh%n, i%nxh
		if slab[i] != pencil[i] {
			t.Fatalf("x=%d y=%d z=%d: slab %v, pencil %v", gx, gy, gz, slab[i], pencil[i])
		}
		if want := ref[(gz*n+gy)*n+gx]; cmplx.Abs(slab[i]-want) > 1e-9 {
			t.Fatalf("x=%d y=%d z=%d: engines %v, local plan %v", gx, gy, gz, slab[i], want)
		}
	}
}
