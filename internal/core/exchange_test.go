package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exchange"
	"repro/internal/mpi"
	"repro/internal/pfft"
)

// Every concrete strategy of the async engine must be bitwise identical
// to the slab engine (one plane group, one exchange per slab, one
// worker) under the fused gather — for both granularities: pencil
// count, team size and strategy change the data path, never a bit.
func TestAsyncExchangeStrategiesBitwiseIdentity(t *testing.T) {
	const n, p = 16, 4
	for _, gran := range []pfft.Granularity{pfft.PerPencil, pfft.PerSlab} {
		gran := gran
		name := "perpencil"
		if gran == pfft.PerSlab {
			name = "perslab"
		}
		t.Run(name, func(t *testing.T) {
			if err := mpi.TryRun(p, func(c *mpi.Comm) {
				mk := func(st exchange.Strategy) *pfft.SlabReal {
					return pfft.NewAsyncSlabReal(c, n, pfft.Options{
						NP: 3, Granularity: gran, Workers: 2, Exchange: st,
					})
				}
				ref := pfft.NewSlabRealStrategy(c, n, 1, exchange.Fused)
				defer ref.Close()
				rng := rand.New(rand.NewSource(int64(7 + c.Rank())))
				phys0 := make([]float64, ref.PhysicalLen())
				for i := range phys0 {
					phys0[i] = rng.NormFloat64()
				}
				refFour := make([]complex128, ref.FourierLen())
				ref.PhysicalToFourier(refFour, phys0)
				refPhys := make([]float64, ref.PhysicalLen())
				fourCopy := make([]complex128, len(refFour))
				copy(fourCopy, refFour)
				ref.FourierToPhysical(refPhys, fourCopy)

				for _, st := range exchange.Concrete {
					a := mk(st)
					four := make([]complex128, a.FourierLen())
					a.PhysicalToFourier(four, phys0)
					for i := range four {
						if four[i] != refFour[i] {
							panic(fmt.Sprintf("rank %d %s %s: forward differs at %d: %v vs %v",
								c.Rank(), name, st, i, four[i], refFour[i]))
						}
					}
					phys := make([]float64, a.PhysicalLen())
					copy(fourCopy, refFour)
					a.FourierToPhysical(phys, fourCopy)
					for i := range phys {
						if phys[i] != refPhys[i] {
							panic(fmt.Sprintf("rank %d %s %s: inverse differs at %d: %v vs %v",
								c.Rank(), name, st, i, phys[i], refPhys[i]))
						}
					}
					a.Close()
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The single-precision wire must behave identically under every
// strategy: each gathers the same complex64 planes the pack narrowed,
// so every SingleComm engine agrees bitwise with the slab engine on the
// same wire (all quantize once, at pack time).
func TestAsyncExchangeFusedSingleCommIdentity(t *testing.T) {
	const n, p = 16, 2
	if err := mpi.TryRun(p, func(c *mpi.Comm) {
		mk := func(st exchange.Strategy) *pfft.SlabReal {
			return pfft.NewAsyncSlabReal(c, n, pfft.Options{
				NP: 3, Granularity: pfft.PerPencil, SingleComm: true, Exchange: st,
			})
		}
		opt := pfft.Options{NP: 1, Granularity: pfft.PerSlab, NGPU: 1, Workers: 1, SingleComm: true, Exchange: exchange.Fused}
		ref := pfft.NewAsyncSlabReal(c, n, opt)
		defer ref.Close()
		rng := rand.New(rand.NewSource(int64(13 + c.Rank())))
		phys0 := make([]float64, ref.PhysicalLen())
		for i := range phys0 {
			phys0[i] = rng.NormFloat64()
		}
		refFour := make([]complex128, ref.FourierLen())
		ref.PhysicalToFourier(refFour, phys0)

		for _, st := range exchange.Concrete {
			a := mk(st)
			four := make([]complex128, a.FourierLen())
			a.PhysicalToFourier(four, phys0)
			for i := range four {
				if four[i] != refFour[i] {
					panic(fmt.Sprintf("rank %d %s: single-comm forward differs at %d",
						c.Rank(), st, i))
				}
			}
			a.Close()
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// Autotuned async engines must pin the same concrete strategy on every
// rank.
func TestAsyncAutotuneAgreesAcrossRanks(t *testing.T) {
	const n, p = 16, 4
	if err := mpi.TryRun(p, func(c *mpi.Comm) {
		a := pfft.NewAsyncSlabReal(c, n, pfft.Options{NP: 3, Granularity: pfft.PerSlab})
		defer a.Close()
		st := a.Strategy()
		if st == exchange.Auto {
			panic("autotune left strategy at Auto")
		}
		codes := make([]float64, p)
		mpi.Allgather(c, []float64{st.Code()}, codes)
		for r, code := range codes {
			if code != st.Code() {
				panic(fmt.Sprintf("rank %d pinned %v, rank %d pinned code %v",
					c.Rank(), st, r, code))
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}
