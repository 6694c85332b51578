package core

import (
	"errors"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
)

// transformOnce runs one PhysicalToFourier through the async engine on
// every rank and stores each rank's spectrum into out[rank]. The input
// field is a fixed per-rank pseudo-random pattern so two runs are
// comparable element by element.
func transformOnce(t *testing.T, n, p int, opt Options, out [][]complex128, runOpts ...mpi.RunOption) {
	t.Helper()
	var mu sync.Mutex
	err := mpi.TryRun(p, func(c *mpi.Comm) {
		a := NewAsyncSlabReal(c, n, opt)
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
// still produces bit-identical spectra: delayed messages reorder the
// unpack schedule but must never corrupt it.
func TestTransformBitwiseCorrectUnderDelays(t *testing.T) {
	const n, p = 16, 4
	delayRule := mpi.FaultRule{
		Src: mpi.AnyRank, Dst: mpi.AnyRank, Tag: mpi.AnyTag,
		Scope: mpi.ScopeColl, Delay: 2 * time.Millisecond,
	}
	for _, gran := range []Granularity{PerPencil, PerSlab} {
		opt := Options{NP: 3, Granularity: gran}
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
					t.Fatalf("gran=%d rank %d: delayed run differs at %d: %v vs %v (|Δ|=%g)",
						gran, r, i, clean[r][i], faulty[r][i], cmplx.Abs(clean[r][i]-faulty[r][i]))
				}
			}
		}
	}
}

// TestWaitDeadlineSurfacesStallError: a dropped bulk all-to-all
// fragment would hang the pipeline forever; with the watchdog's
// per-operation deadline the engine's Wait raises a typed StallError
// on the rank it names instead.
func TestWaitDeadlineSurfacesStallError(t *testing.T) {
	const n, p = 16, 2
	// Drop only bulk engine fragments: small control collectives (and
	// the P2P layer) stay functional so the failure is isolated to the
	// transform's all-to-all.
	drop := mpi.FaultRule{
		Src: 1, Dst: 0, Tag: mpi.AnyTag,
		Scope: mpi.ScopeColl, MinBytes: 1024, DropProb: 1,
	}
	start := time.Now()
	err := mpi.TryRun(p, func(c *mpi.Comm) {
		a := NewAsyncSlabReal(c, n, Options{NP: 3, Granularity: PerPencil})
		defer a.Close()
		phys := make([]float64, a.PhysicalLen())
		four := make([]complex128, a.FourierLen())
		a.PhysicalToFourier(four, phys)
	},
		mpi.WithFaults(&mpi.Faults{Rules: []mpi.FaultRule{drop}}),
		mpi.WithWatchdog(mpi.Watchdog{Deadline: time.Second, DeadlockAfter: time.Hour}),
	)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("bounded wait took %v to fail", elapsed)
	}
	var st *mpi.StallError
	if !errors.As(err, &st) {
		t.Fatalf("error %T (%v) does not wrap *mpi.StallError", err, err)
	}
	if st.Rank != 0 || st.Op != "wait" || !st.Coll || st.Deadlock {
		t.Fatalf("StallError = %+v, want rank 0's deadline in a collective wait", st)
	}
	var re *mpi.RankError
	if !errors.As(err, &re) || re.Rank != 0 {
		t.Fatalf("error %v: the stall was not raised by rank 0's wait", err)
	}
}
