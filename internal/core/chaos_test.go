package core

import (
	"errors"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/exchange"
	"repro/internal/mpi"
	"repro/internal/pfft"
)

// transformOnce runs one PhysicalToFourier through the async engine on
// every rank and stores each rank's spectrum into out[rank]. The input
// field is a fixed per-rank pseudo-random pattern so two runs are
// comparable element by element.
func transformOnce(t *testing.T, n, p int, opt pfft.Options, out [][]complex128, runOpts ...mpi.RunOption) {
	t.Helper()
	var mu sync.Mutex
	err := mpi.TryRun(p, func(c *mpi.Comm) {
		a := pfft.NewAsyncSlabReal(c, n, opt)
		defer a.Close()
		rng := rand.New(rand.NewSource(int64(c.Rank()) + 17))
		phys := make([]float64, a.PhysicalLen())
		for i := range phys {
			phys[i] = rng.NormFloat64()
		}
		four := make([]complex128, a.FourierLen())
		a.PhysicalToFourier(four, phys)
		mu.Lock()
		out[c.Rank()] = four
		mu.Unlock()
	}, runOpts...)
	if err != nil {
		t.Fatalf("transform under injected faults failed: %v", err)
	}
}

// TestTransformBitwiseCorrectUnderDelays injects multi-window delivery
// delays into every collective fragment and checks the async engine
// still produces bit-identical spectra: delayed slabs reorder the
// exchange schedule but must never corrupt it. The engine pins each
// concrete strategy in turn, so the delays land in the transform's own
// unit exchanges, not in a tuner's trials.
func TestTransformBitwiseCorrectUnderDelays(t *testing.T) {
	const n, p = 16, 4
	delayRule := mpi.FaultRule{
		Src: mpi.AnyRank, Dst: mpi.AnyRank, Tag: mpi.AnyTag,
		Delay: 2 * time.Millisecond,
	}
	for _, st := range []exchange.Strategy{exchange.Staged, exchange.Fused, exchange.ChunkedFused} {
		for _, gran := range []pfft.Granularity{pfft.PerPencil, pfft.PerSlab} {
			opt := pfft.Options{NP: 3, Granularity: gran, Exchange: st}
			clean := make([][]complex128, p)
			transformOnce(t, n, p, opt, clean)
			faulty := make([][]complex128, p)
			transformOnce(t, n, p, opt, faulty,
				mpi.WithFaults(&mpi.Faults{Seed: 7, Rules: []mpi.FaultRule{delayRule}}),
				mpi.WithWatchdog(mpi.Watchdog{DeadlockAfter: time.Second, Poll: 5 * time.Millisecond}),
			)
			for r := 0; r < p; r++ {
				for i := range clean[r] {
					if clean[r][i] != faulty[r][i] {
						t.Fatalf("%s gran=%d rank %d: delayed run differs at %d: %v vs %v (|Δ|=%g)",
							st, gran, r, i, clean[r][i], faulty[r][i], cmplx.Abs(clean[r][i]-faulty[r][i]))
					}
				}
			}
		}
	}
}

// TestWaitDeadlineSurfacesStallError: a dropped bulk slab would hang
// the pipeline forever; with the watchdog's per-operation deadline the
// reader's wait raises a typed StallError on the rank it names
// instead. Pinned to each concrete strategy, the drop reaches the
// transform's own unit exchange; under Auto it lands in the tuner's
// first trial, and all that is asserted there is that the stall still
// comes back typed.
func TestWaitDeadlineSurfacesStallError(t *testing.T) {
	const n, p = 16, 2
	// Drop only bulk engine slabs: small control collectives stay
	// functional so the failure is isolated to the transform's exchange.
	drop := mpi.FaultRule{
		Src: 1, Dst: 0, Tag: mpi.AnyTag,
		MinBytes: 1024, DropProb: 1,
	}
	stall := func(st exchange.Strategy) (*mpi.StallError, error) {
		start := time.Now()
		err := mpi.TryRun(p, func(c *mpi.Comm) {
			a := pfft.NewAsyncSlabReal(c, n, pfft.Options{NP: 3, Granularity: pfft.PerPencil, Exchange: st})
			defer a.Close()
			phys := make([]float64, a.PhysicalLen())
			four := make([]complex128, a.FourierLen())
			a.PhysicalToFourier(four, phys)
		},
			mpi.WithFaults(&mpi.Faults{Rules: []mpi.FaultRule{drop}}),
			mpi.WithWatchdog(mpi.Watchdog{Deadline: time.Second, DeadlockAfter: time.Hour}),
		)
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("%s: bounded wait took %v to fail", st, elapsed)
		}
		var se *mpi.StallError
		if !errors.As(err, &se) {
			t.Fatalf("%s: error %T (%v) does not wrap *mpi.StallError", st, err, err)
		}
		return se, err
	}
	for _, pinned := range []exchange.Strategy{exchange.Staged, exchange.Fused, exchange.ChunkedFused} {
		st, err := stall(pinned)
		if st.Rank != 0 || st.Op != "wait" || st.Deadlock {
			t.Fatalf("%s: StallError = %+v, want rank 0's deadline in a collective wait", pinned, st)
		}
		var re *mpi.RankError
		if !errors.As(err, &re) || re.Rank != 0 {
			t.Fatalf("%s: error %v: the stall was not raised by rank 0's wait", pinned, err)
		}
	}
	stall(exchange.Auto)
}
