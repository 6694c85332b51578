package core

import (
	"fmt"
	"testing"

	"repro/internal/exchange"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/pfft"
	"repro/internal/pool/pooltest"
)

// Every buffer the batched pipeline holds costs only what it holds once
// it has run: after a truncation to the 2/3 band and a round trip, and
// again after Truncate(N/2) restores the full band and another round
// trip, each float and complex buffer reachable from it — the pooled
// slabs, the f32 wire slabs, the cells' FFT plan scratch — is reached
// to its end by some slice, under every strategy, on both wires and
// both granularities. pfft's same-named test walks freshly built
// engines.
func TestEngineBuffersExactLength(t *testing.T) {
	const n, p = 24, 2
	for _, st := range exchange.Concrete {
		for _, single := range []bool{false, true} {
			for _, gran := range []pfft.Granularity{pfft.PerPencil, pfft.PerSlab} {
				opt := pfft.Options{NP: 3, Granularity: gran, NGPU: 2, Workers: 2, SingleComm: single, Exchange: st}
				for _, kmax := range []int{grid.DealiasKmax(n), n / 2} {
					pooltest.InWorld(p, func(c *mpi.Comm) *pfft.SlabReal {
						a := pfft.NewAsyncSlabReal(c, n, opt)
						four := make([]complex128, a.FourierLen())
						phys := make([]float64, a.PhysicalLen())
						for _, k := range []int{grid.DealiasKmax(n), kmax} {
							a.Truncate(k)
							a.FourierToPhysical(phys, four)
							a.PhysicalToFourier(four, phys)
						}
						return a
					}, func(built []*pfft.SlabReal) {
						for r, a := range built {
							tag := fmt.Sprintf("%+v kmax=%d rank %d", opt, kmax, r)
							bad, bufs := pooltest.Overheld(a)
							if bufs == 0 {
								t.Errorf("%s: the walk found no buffer", tag)
							}
							for _, b := range bad {
								t.Errorf("%s: %s", tag, b)
							}
						}
					}, (*pfft.SlabReal).Close)
				}
			}
		}
	}
}
