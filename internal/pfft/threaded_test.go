package pfft

import (
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/exchange"
	"repro/internal/mpi"
)

func TestThreadedMatchesSerialExactly(t *testing.T) {
	// The hybrid rank+threads transform must give bit-identical results
	// for every team size (same per-line FFTs, only scheduling differs).
	// Team sizes 1, 2, 4 and 7 are TestSlabRealWorkersBitwiseIdentity's.
	n, p := 16, 2
	for _, threads := range []int{8} {
		mpi.Run(p, func(c *mpi.Comm) {
			ref := NewSlabRealStrategy(c, n, 1, exchange.Auto)
			defer ref.Close()
			thr := NewSlabRealStrategy(c, n, threads, exchange.Auto)
			defer thr.Close()
			if thr.Workers() != threads {
				t.Fatalf("team size %d", thr.Workers())
			}
			rng := rand.New(rand.NewSource(int64(c.Rank()) + 55))
			phys := make([]float64, ref.PhysicalLen())
			for i := range phys {
				phys[i] = rng.NormFloat64()
			}
			fr := make([]complex128, ref.FourierLen())
			ft := make([]complex128, thr.FourierLen())
			ref.PhysicalToFourier(fr, phys)
			thr.PhysicalToFourier(ft, phys)
			for i := range fr {
				if fr[i] != ft[i] {
					t.Fatalf("threads=%d: spectra differ at %d", threads, i)
				}
			}
			pr := make([]float64, ref.PhysicalLen())
			pt := make([]float64, thr.PhysicalLen())
			frc := append([]complex128(nil), fr...)
			ref.FourierToPhysical(pr, frc)
			copy(frc, fr)
			thr.FourierToPhysical(pt, frc)
			for i := range pr {
				if pr[i] != pt[i] {
					t.Fatalf("threads=%d: physical fields differ at %d", threads, i)
				}
			}
		})
	}
}

func TestThreadedHybridConfigurationsAgree(t *testing.T) {
	// The hybrid design point: 2 ranks × 4 threads must equal 8 ranks ×
	// 1 thread (same N), the trade §4.1 exploits to grow message sizes.
	n := 16
	spectra := map[string][]complex128{}
	run := func(label string, ranks, threads int) {
		mpi.Run(ranks, func(c *mpi.Comm) {
			f := NewSlabRealStrategy(c, n, threads, exchange.Auto)
			defer f.Close()
			// Build the same global field on every layout.
			phys := make([]float64, f.PhysicalLen())
			my := f.Slab().MY()
			for iy := 0; iy < my; iy++ {
				gy := f.Slab().YLo() + iy
				for iz := 0; iz < n; iz++ {
					for ix := 0; ix < n; ix++ {
						phys[(iy*n+iz)*n+ix] = float64((gy*n+iz)*n+ix%7) * 0.001
					}
				}
			}
			four := make([]complex128, f.FourierLen())
			f.PhysicalToFourier(four, phys)
			if c.Rank() == 0 {
				spectra[label] = append([]complex128(nil), four...)
			}
		})
	}
	run("2x4", 2, 4)
	run("8x1", 8, 1)
	// Rank 0 of the 8x1 run holds the first quarter of the 2x4 rank 0
	// slab; compare the overlap.
	a := spectra["2x4"]
	b := spectra["8x1"]
	if len(b) >= len(a) {
		t.Fatalf("slab sizes: %d vs %d", len(a), len(b))
	}
	for i := range b {
		if cmplx.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("hybrid layouts disagree at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
