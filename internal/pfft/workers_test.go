package pfft

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exchange"
	"repro/internal/mpi"
)

// Worker-team transforms must be bitwise identical to the single-worker
// transform for any team size: the plane-level work units are
// independent and run on identical plans, so parallelism must not
// change a single bit of output.
func TestSlabRealWorkersBitwiseIdentity(t *testing.T) {
	const n, p = 16, 2
	mpi.Run(p, func(c *mpi.Comm) {
		ref := NewSlabRealStrategy(c, n, 1, exchange.Auto)
		defer ref.Close()
		fl, pl := ref.FourierLen(), ref.PhysicalLen()

		rng := rand.New(rand.NewSource(int64(1000 + c.Rank())))
		physIn := make([]float64, pl)
		for i := range physIn {
			physIn[i] = rng.NormFloat64()
		}

		refFour := make([]complex128, fl)
		refPhys := make([]float64, pl)
		copyPhys := make([]float64, pl)
		copy(copyPhys, physIn)
		ref.PhysicalToFourier(refFour, copyPhys)
		fourScratch := make([]complex128, fl)
		copy(fourScratch, refFour)
		ref.FourierToPhysical(refPhys, fourScratch)

		for _, w := range []int{1, 2, 4, 7} {
			f := NewSlabRealStrategy(c, n, w, exchange.Auto)
			four := make([]complex128, fl)
			phys := make([]float64, pl)
			copy(phys, physIn)
			f.PhysicalToFourier(four, phys)
			for i := range four {
				if four[i] != refFour[i] {
					panic(fmt.Sprintf("rank %d workers=%d: forward differs at %d: %v vs %v",
						c.Rank(), w, i, four[i], refFour[i]))
				}
			}
			outPhys := make([]float64, pl)
			f.FourierToPhysical(outPhys, four)
			for i := range outPhys {
				if outPhys[i] != refPhys[i] {
					panic(fmt.Sprintf("rank %d workers=%d: inverse differs at %d: %v vs %v",
						c.Rank(), w, i, outPhys[i], refPhys[i]))
				}
			}
			f.Close()
		}
	})
}

// The acceptance gate of the zero-allocation hot path: a steady-state
// slab forward+inverse at N=64, P=4 performs 0 heap allocations after
// warmup. Rank 0 measures; peers execute the same collective sequence
// runs+1 times to match AllocsPerRun's execution count.
func TestSlabRealSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("N=64 transform loop in -short mode")
	}
	const n, p, runs = 64, 4, 10
	mpi.Run(p, func(c *mpi.Comm) {
		f := NewSlabRealStrategy(c, n, 1, exchange.Auto)
		defer f.Close()
		four := make([]complex128, f.FourierLen())
		phys := make([]float64, f.PhysicalLen())
		for i := range phys {
			phys[i] = float64(i%13) * 0.25
		}
		cycle := func() {
			f.PhysicalToFourier(four, phys)
			f.FourierToPhysical(phys, four)
		}
		// Full, then band-limited to the 2/3 rule: Truncate is plan time,
		// the transforms behind it allocate as little as those before.
		for _, kmax := range []int{-1, n / 3} {
			f.Truncate(kmax)
			for i := 0; i < 3; i++ {
				cycle() // warm up: metric handles, watchdog freelist, map growth
			}
			var avg float64
			if c.Rank() == 0 {
				avg = testing.AllocsPerRun(runs, cycle)
			} else {
				for i := 0; i < runs+1; i++ {
					cycle()
				}
			}
			// Hold the peers until rank 0 has read its counters: what they
			// do next (the next Truncate, Close) allocates, process-wide.
			c.Barrier()
			if avg != 0 {
				panic(fmt.Sprintf("kmax=%d: steady-state forward+inverse allocates %.2f per cycle", kmax, avg))
			}
		}
	})
}

// Round trip through the worker-team path must still reconstruct the
// input (normalization check independent of the identity test).
func TestSlabRealWorkersRoundTrip(t *testing.T) {
	const n, p, w = 8, 2, 3
	mpi.Run(p, func(c *mpi.Comm) {
		f := NewSlabRealStrategy(c, n, w, exchange.Auto)
		defer f.Close()
		phys := make([]float64, f.PhysicalLen())
		orig := make([]float64, f.PhysicalLen())
		rng := rand.New(rand.NewSource(int64(7 + c.Rank())))
		for i := range phys {
			phys[i] = rng.NormFloat64()
			orig[i] = phys[i]
		}
		four := make([]complex128, f.FourierLen())
		f.PhysicalToFourier(four, phys)
		out := make([]float64, f.PhysicalLen())
		f.FourierToPhysical(out, four)
		for i := range out {
			if d := out[i] - orig[i]; d > 1e-10 || d < -1e-10 {
				panic(fmt.Sprintf("rank %d: round trip differs at %d: %v vs %v",
					c.Rank(), i, out[i], orig[i]))
			}
		}
	})
}
