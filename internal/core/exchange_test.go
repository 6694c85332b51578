package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exchange"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/pfft"
)

// The fused and chunked-fused exchanges must be bitwise identical to
// the staged wire path on the async engine — for both granularities:
// the gather reads the same packed send blocks the all-to-all would
// have moved, so not a single bit may differ.
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
				ref := mk(exchange.Staged)
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

				for _, st := range []exchange.Strategy{exchange.Fused, exchange.ChunkedFused} {
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

// Single-precision wire staging must behave identically under fused
// exchanges: the gather widens the same complex64 blocks the staged
// unpack would have widened, so fused and staged SingleComm engines
// agree bitwise (both quantize once, at pack time).
func TestAsyncExchangeFusedSingleCommIdentity(t *testing.T) {
	const n, p = 16, 2
	if err := mpi.TryRun(p, func(c *mpi.Comm) {
		mk := func(st exchange.Strategy) *pfft.SlabReal {
			return pfft.NewAsyncSlabReal(c, n, pfft.Options{
				NP: 3, Granularity: pfft.PerPencil, SingleComm: true, Exchange: st,
			})
		}
		ref := mk(exchange.Staged)
		defer ref.Close()
		rng := rand.New(rand.NewSource(int64(13 + c.Rank())))
		phys0 := make([]float64, ref.PhysicalLen())
		for i := range phys0 {
			phys0[i] = rng.NormFloat64()
		}
		refFour := make([]complex128, ref.FourierLen())
		ref.PhysicalToFourier(refFour, phys0)

		for _, st := range []exchange.Strategy{exchange.Fused, exchange.ChunkedFused} {
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

// A staged exchange of the batched pipeline charges the band's compact
// blocks, as its exported counter shows: per direction, every unit's
// exchange charges exchange.bytes (P−1)·w·My·KB elements at the wire
// precision — w the unit's planes (none for a group past N/P), KB the
// band's x width — not whole w·My·Nxh blocks, at two devices and two
// workers. pfft's same-named test pins the count at one device, the
// slab (np = 1) included.
func TestStagedChargesBandBlocks(t *testing.T) {
	const n = 16
	for _, p := range []int{1, 2, 4} {
		for _, kmax := range []int{-1, 1, grid.DealiasKmax(n)} {
			for _, np := range []int{3, 5} {
				for _, gran := range []pfft.Granularity{pfft.PerPencil, pfft.PerSlab} {
					for _, single := range []bool{false, true} {
						opt := pfft.Options{NP: np, Granularity: gran, NGPU: 2, Workers: 2, Exchange: exchange.Staged, SingleComm: single}
						if err := mpi.RunWith(p, metrics.NewRegistry(), func(c *mpi.Comm) {
							checkStagedBytes(c, n, kmax, opt)
						}); err != nil {
							t.Fatalf("P=%d kmax=%d %+v: %v", p, kmax, opt, err)
						}
					}
				}
			}
		}
	}
}

// checkStagedBytes is one rank of TestStagedChargesBandBlocks.
func checkStagedBytes(c *mpi.Comm, n, kmax int, opt pfft.Options) {
	a := pfft.NewAsyncSlabReal(c, n, opt)
	defer a.Close()
	a.Truncate(kmax)
	p, my := c.Size(), n/c.Size()
	kb, elem := int64(grid.NewBand(n, kmax).Width(0, n/2+1)), int64(16)
	if opt.SingleComm {
		elem = 8
	}
	want := int64(0)
	for _, u := range exchangeUnits(my, opt) {
		want += int64((p-1)*(u[1]-u[0])*my) * kb * elem
	}
	ctr := c.Metrics().CounterRank("exchange.bytes", c.Rank())
	four := make([]complex128, a.FourierLen())
	phys := make([]float64, a.PhysicalLen())
	for _, d := range []exchange.Dir{exchange.YZ, exchange.ZY} {
		before := ctr.Value()
		if d == exchange.YZ {
			a.FourierToPhysical(phys, four)
		} else {
			a.PhysicalToFourier(four, phys)
		}
		if got := ctr.Value() - before; got != want {
			panic(fmt.Sprintf("dir %d: exchange.bytes grew %d, the band's blocks are %d", d, got, want))
		}
	}
}
