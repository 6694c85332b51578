package core

import (
	"testing"

	"repro/internal/exchange"
	"repro/internal/mpi"
)

// allocsPerPair measures the heap allocations of one steady-state
// forward+inverse pair on an engine truncated to kmax (−1: full). Rank
// 0 measures; peers execute the same collective sequence runs+1 times
// to match AllocsPerRun's count.
func allocsPerPair(n, p, kmax int, opt Options) float64 {
	const runs = 20
	var avg float64
	mpi.Run(p, func(c *mpi.Comm) {
		a := NewAsyncSlabReal(c, n, opt)
		defer a.Close()
		a.Truncate(kmax)
		four := make([]complex128, a.FourierLen())
		phys := make([]float64, a.PhysicalLen())
		for i := range phys {
			phys[i] = float64(i%13) * 0.25
		}
		cycle := func() {
			a.PhysicalToFourier(four, phys)
			a.FourierToPhysical(phys, four)
		}
		for i := 0; i < 3; i++ {
			cycle() // warm up: metric handles, watchdog freelist, map growth
		}
		if c.Rank() == 0 {
			avg = testing.AllocsPerRun(runs, cycle)
		} else {
			for i := 0; i < runs+1; i++ {
				cycle()
			}
		}
		c.Barrier() // peers close (and allocate) only after rank 0 has read its counters
	})
	return avg
}

// The replayed op program allocates nothing: a steady-state
// forward+inverse pair performs 0 heap allocations under every
// strategy, for either granularity, one or two devices and either wire
// precision.
func TestAsyncSteadyStateZeroAllocs(t *testing.T) {
	const n, p, np = 16, 2, 3
	for _, st := range []exchange.Strategy{exchange.Staged, exchange.Fused, exchange.ChunkedFused} {
		for _, gran := range []Granularity{PerPencil, PerSlab} {
			for _, ngpu := range []int{1, 2} {
				for _, single := range []bool{false, true} {
					for _, kmax := range []int{-1, n / 3} { // full, the 2/3 band
						avg := allocsPerPair(n, p, kmax, Options{
							NP: np, Granularity: gran, NGPU: ngpu, SingleComm: single, Exchange: st,
						})
						if avg != 0 {
							t.Errorf("%s gran=%d ngpu=%d single=%v kmax=%d: %.1f allocs per forward+inverse pair, want 0",
								st, gran, ngpu, single, kmax, avg)
						}
					}
				}
			}
		}
	}
}
