package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/exchange"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/pfft"
)

// runBoth transforms the same random Fourier slab through the
// synchronous reference and the asynchronous pipeline and returns the
// max abs difference of the physical fields plus the round-trip error.
func runBoth(t *testing.T, n, p int, opt pfft.Options) (maxDiff, roundTrip float64) {
	t.Helper()
	var mu sync.Mutex
	var worstDiff, worstRT float64
	mpi.Run(p, func(c *mpi.Comm) {
		ref := pfft.NewSlabRealStrategy(c, n, 1, exchange.Auto)
		defer ref.Close()
		async := pfft.NewAsyncSlabReal(c, n, opt)
		defer async.Close()

		rng := rand.New(rand.NewSource(int64(c.Rank()) + 101))
		phys0 := make([]float64, ref.PhysicalLen())
		for i := range phys0 {
			phys0[i] = rng.NormFloat64()
		}
		// Build a valid (conjugate-symmetric) spectrum from real data.
		fourRef := make([]complex128, ref.FourierLen())
		ref.PhysicalToFourier(fourRef, phys0)
		fourAsync := make([]complex128, async.FourierLen())
		physAsync := make([]float64, async.PhysicalLen())
		async.PhysicalToFourier(fourAsync, phys0)
		var d float64
		for i := range fourRef {
			if e := cmplx.Abs(fourAsync[i] - fourRef[i]); e > d {
				d = e
			}
		}
		// Forward direction comparison.
		fourCopy := make([]complex128, len(fourRef))
		copy(fourCopy, fourRef)
		physRef := make([]float64, ref.PhysicalLen())
		ref.FourierToPhysical(physRef, fourCopy)
		copy(fourCopy, fourRef)
		async.FourierToPhysical(physAsync, fourCopy)
		for i := range physRef {
			if e := math.Abs(physAsync[i] - physRef[i]); e > d {
				d = e
			}
		}
		// Round trip through the async engine alone.
		copy(fourCopy, fourRef)
		async.FourierToPhysical(physAsync, fourCopy)
		async.PhysicalToFourier(fourCopy, physAsync)
		var rt float64
		for i := range fourCopy {
			if e := cmplx.Abs(fourCopy[i] - fourRef[i]); e > rt {
				rt = e
			}
		}
		mu.Lock()
		if d > worstDiff {
			worstDiff = d
		}
		if rt > worstRT {
			worstRT = rt
		}
		mu.Unlock()
	})
	return worstDiff, worstRT
}

func TestAsyncMatchesSyncPerSlab(t *testing.T) {
	d, rt := runBoth(t, 16, 4, pfft.Options{NP: 3, Granularity: pfft.PerSlab})
	if d > 1e-10 {
		t.Errorf("async(pfft.PerSlab) differs from sync by %g", d)
	}
	if rt > 1e-10 {
		t.Errorf("round trip error %g", rt)
	}
}

func TestAsyncMatchesSyncPerPencil(t *testing.T) {
	d, rt := runBoth(t, 16, 4, pfft.Options{NP: 4, Granularity: pfft.PerPencil})
	if d > 1e-10 {
		t.Errorf("async(pfft.PerPencil) differs from sync by %g", d)
	}
	if rt > 1e-10 {
		t.Errorf("round trip error %g", rt)
	}
}

func TestAsyncManyPencilCounts(t *testing.T) {
	// N/P = 8 for n=16: exercise uneven plane groups including np∤N/P
	// and np > N/P (an empty group).
	for _, np := range []int{1, 2, 3, 5, 7, 9} {
		for _, gran := range []pfft.Granularity{pfft.PerPencil, pfft.PerSlab} {
			d, _ := runBoth(t, 16, 2, pfft.Options{NP: np, Granularity: gran})
			if d > 1e-10 {
				t.Errorf("np=%d gran=%d: diff %g", np, gran, d)
			}
		}
	}
}

func TestAsyncMultiGPU(t *testing.T) {
	// Fig 5: pencils split vertically across multiple devices per rank.
	for _, ngpu := range []int{2, 3} {
		d, rt := runBoth(t, 12, 2, pfft.Options{NP: 3, Granularity: pfft.PerPencil, NGPU: ngpu})
		if d > 1e-10 {
			t.Errorf("ngpu=%d: diff %g", ngpu, d)
		}
		if rt > 1e-10 {
			t.Errorf("ngpu=%d: round trip %g", ngpu, rt)
		}
	}
}

func TestAsyncMoreGPUsThanWidth(t *testing.T) {
	// Degenerate vertical splits (some devices get zero width).
	d, _ := runBoth(t, 8, 2, pfft.Options{NP: 5, Granularity: pfft.PerSlab, NGPU: 4})
	if d > 1e-10 {
		t.Errorf("diff %g", d)
	}
}

func TestAsyncSingleRank(t *testing.T) {
	d, rt := runBoth(t, 16, 1, pfft.Options{NP: 3, Granularity: pfft.PerPencil})
	if d > 1e-10 || rt > 1e-10 {
		t.Errorf("single rank: diff %g rt %g", d, rt)
	}
}

func TestAsyncManyRanks(t *testing.T) {
	d, _ := runBoth(t, 16, 8, pfft.Options{NP: 3, Granularity: pfft.PerSlab})
	if d > 1e-10 {
		t.Errorf("8 ranks: diff %g", d)
	}
}

// The Fig 2 synchronous algorithm is what NewSlabReal builds: the slab
// engine at np = 1, one exchange per slab, one device. Over a
// transform pair its one device runs four compute ops (one per region)
// and records no event but each region's drain — a per-pencil engine
// records each transposing cell's compute event too — and each
// direction makes one exchange.
func TestSyncGPUBaseline(t *testing.T) {
	if err := mpi.RunWith(2, metrics.NewRegistry(), func(c *mpi.Comm) {
		sg := pfft.NewSlabRealStrategy(c, 16, 1, exchange.Auto)
		defer sg.Close()
		if sg.NP() != 1 {
			panic(fmt.Sprintf("sync baseline np=%d", sg.NP()))
		}
		reg, me := c.Metrics(), c.Rank()
		ops, calls := reg.CounterRank("cuda.stream.ops", me), reg.CounterRank("exchange.calls", me)
		events := reg.HistogramRank("cuda.event.latency", me)
		ops0, calls0, events0 := ops.Value(), calls.Value(), events.Stat().Count
		four := make([]complex128, sg.FourierLen())
		phys := make([]float64, sg.PhysicalLen())
		sg.PhysicalToFourier(four, phys)
		sg.FourierToPhysical(phys, four)
		got := [3]int64{ops.Value() - ops0, calls.Value() - calls0, events.Stat().Count - events0}
		if got != [3]int64{4, 2, 4} {
			panic(fmt.Sprintf("rank %d: a pair ran %d compute ops, %d exchanges and recorded %d events, want 4, 2 and 4", me, got[0], got[1], got[2]))
		}
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedTransformsReuseBuffersSafely(t *testing.T) {
	// Many back-to-back transforms through the same engine must not
	// corrupt state (slot rotation, event bookkeeping).
	mpi.Run(2, func(c *mpi.Comm) {
		a := pfft.NewAsyncSlabReal(c, 8, pfft.Options{NP: 3, Granularity: pfft.PerPencil})
		defer a.Close()
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		phys := make([]float64, a.PhysicalLen())
		for i := range phys {
			phys[i] = rng.NormFloat64()
		}
		orig := make([]float64, len(phys))
		copy(orig, phys)
		four := make([]complex128, a.FourierLen())
		for iter := 0; iter < 5; iter++ {
			a.PhysicalToFourier(four, phys)
			a.FourierToPhysical(phys, four)
			for i := range phys {
				if math.Abs(phys[i]-orig[i]) > 1e-8 {
					t.Fatalf("iter %d: drift %g at %d", iter, phys[i]-orig[i], i)
				}
			}
		}
	})
}

func TestOptionsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for np > nxh")
		}
	}()
	mpi.Run(1, func(c *mpi.Comm) {
		pfft.NewAsyncSlabReal(c, 8, pfft.Options{NP: 100})
	})
}
