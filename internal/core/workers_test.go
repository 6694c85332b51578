package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mpi"
	"repro/internal/pfft"
)

// Worker-team parallelism inside the async engine must be bitwise
// invisible: the per-plane FFT loops and the host unpack kernels
// partition independent work units onto identical plans, so the engine
// must produce bit-identical output for any team size, in every
// granularity and wire-precision configuration.
func TestAsyncWorkersBitwiseIdentity(t *testing.T) {
	const n, p = 16, 2
	configs := []struct {
		name string
		opt  pfft.Options
	}{
		{"per-pencil", pfft.Options{NP: 3, Granularity: pfft.PerPencil}},
		{"per-slab", pfft.Options{NP: 3, Granularity: pfft.PerSlab}},
		{"per-slab-single", pfft.Options{NP: 3, Granularity: pfft.PerSlab, SingleComm: true}},
		{"per-pencil-2gpu", pfft.Options{NP: 3, Granularity: pfft.PerPencil, NGPU: 2}},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			mpi.Run(p, func(c *mpi.Comm) {
				refOpt := cfg.opt
				refOpt.Workers = 1
				ref := pfft.NewAsyncSlabReal(c, n, refOpt)
				fl, pl := ref.FourierLen(), ref.PhysicalLen()

				rng := rand.New(rand.NewSource(int64(500 + c.Rank())))
				physIn := make([]float64, pl)
				for i := range physIn {
					physIn[i] = rng.NormFloat64()
				}
				refFour := make([]complex128, fl)
				refPhys := make([]float64, pl)
				ref.PhysicalToFourier(refFour, physIn)
				fourScratch := make([]complex128, fl)
				copy(fourScratch, refFour)
				ref.FourierToPhysical(refPhys, fourScratch)
				ref.Close()

				for _, w := range []int{1, 2, 4, 7} {
					opt := cfg.opt
					opt.Workers = w
					eng := pfft.NewAsyncSlabReal(c, n, opt)
					four := make([]complex128, fl)
					eng.PhysicalToFourier(four, physIn)
					for i := range four {
						if four[i] != refFour[i] {
							panic(fmt.Sprintf("rank %d %s workers=%d: forward differs at %d: %v vs %v",
								c.Rank(), cfg.name, w, i, four[i], refFour[i]))
						}
					}
					phys := make([]float64, pl)
					eng.FourierToPhysical(phys, four)
					for i := range phys {
						if phys[i] != refPhys[i] {
							panic(fmt.Sprintf("rank %d %s workers=%d: inverse differs at %d: %v vs %v",
								c.Rank(), cfg.name, w, i, phys[i], refPhys[i]))
						}
					}
					eng.Close()
				}
			})
		})
	}
}
