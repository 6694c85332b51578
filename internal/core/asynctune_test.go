package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exchange"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/pfft"
	"repro/internal/tuning"
)

// The async whole-step tuner's default space (strategies × both
// granularities) contains only float64 points, so a tuned engine must
// be bitwise-identical to a plain engine pinned to whatever the
// trials select.
func TestAsyncTunedBitwiseIdentity(t *testing.T) {
	const n, p = 16, 4
	if err := mpi.TryRun(p, func(c *mpi.Comm) {
		opt := pfft.Options{NP: 3, Granularity: pfft.PerSlab}
		tuned := pfft.NewAsyncSlabRealTuned(c, n, opt, tuning.Config{})
		defer tuned.Close()

		// The plain engine with the tuner's own pinned configuration.
		pinned := opt
		pinned.Exchange = tuned.Strategy()
		ref := pfft.NewAsyncSlabReal(c, n, pinned)
		defer ref.Close()

		rng := rand.New(rand.NewSource(int64(23 + c.Rank())))
		phys := make([]float64, ref.PhysicalLen())
		for i := range phys {
			phys[i] = rng.NormFloat64()
		}
		a := make([]complex128, ref.FourierLen())
		b := make([]complex128, tuned.FourierLen())
		ref.PhysicalToFourier(a, phys)
		tuned.PhysicalToFourier(b, phys)
		for i := range a {
			if a[i] != b[i] {
				panic(fmt.Sprintf("rank %d: tuned engine (winner %s) differs at %d", c.Rank(), tuned.Strategy(), i))
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// Exchange: exchange.Auto routes through the tuner's strategy-only
// search and must agree on one concrete strategy across ranks, leaving
// the option-given granularity alone: two non-empty pencils exchanged
// one by one make two exchanges per direction.
func TestAsyncAutoExchangePinsConcrete(t *testing.T) {
	const n, p = 16, 4
	if err := mpi.RunWith(p, metrics.NewRegistry(), func(c *mpi.Comm) {
		tr := pfft.NewAsyncSlabReal(c, n, pfft.Options{NP: 2, Granularity: pfft.PerPencil, Exchange: exchange.Auto})
		defer tr.Close()
		st := tr.Strategy()
		if st == exchange.Auto || st == exchange.AT {
			panic(fmt.Sprintf("auto pinned %v", st))
		}
		calls := c.Metrics().CounterRank("exchange.calls", c.Rank())
		before := calls.Value()
		four := make([]complex128, tr.FourierLen())
		phys := make([]float64, tr.PhysicalLen())
		tr.PhysicalToFourier(four, phys)
		tr.FourierToPhysical(phys, four)
		if got := calls.Value() - before; got != 4 || tr.NP() != 2 {
			panic(fmt.Sprintf("auto changed the engine: %d exchanges per pair, np=%d", got, tr.NP()))
		}
		codes := make([]float64, p)
		mpi.Allgather(c, []float64{st.Code()}, codes)
		for r, code := range codes {
			if code != st.Code() {
				panic(fmt.Sprintf("rank %d pinned %v but rank %d pinned code %v", c.Rank(), st, r, code))
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// A warm cache skips the async tuner's trials: the second construction
// with the same key performs zero trial exchanges.
func TestAsyncTunedWarmCacheSkipsTrials(t *testing.T) {
	const n, p = 16, 2
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	reg.SetOn(true)
	if err := mpi.RunWith(p, reg, func(c *mpi.Comm) {
		cfg := tuning.Config{Cache: tuning.Open(dir)}
		opt := pfft.Options{NP: 2, Granularity: pfft.PerSlab}
		trials := c.Metrics().CounterRank("tune.trials", c.Rank())

		cold := pfft.NewAsyncSlabRealTuned(c, n, opt, cfg)
		after := trials.Value()
		if after == 0 {
			panic(fmt.Sprintf("rank %d: cold async tuning ran no trials", c.Rank()))
		}

		warm := pfft.NewAsyncSlabRealTuned(c, n, opt, cfg)
		if got := trials.Value(); got != after {
			panic(fmt.Sprintf("rank %d: warm async tuning ran %d trial exchanges, want 0", c.Rank(), got-after))
		}
		if warm.Strategy() != cold.Strategy() {
			panic(fmt.Sprintf("rank %d: warm strategy %s != cold %s", c.Rank(), warm.Strategy(), cold.Strategy()))
		}

		// The cached point must reproduce the trial-selected engine
		// bitwise.
		rng := rand.New(rand.NewSource(int64(29 + c.Rank())))
		phys := make([]float64, cold.PhysicalLen())
		for i := range phys {
			phys[i] = rng.NormFloat64()
		}
		a := make([]complex128, cold.FourierLen())
		b := make([]complex128, warm.FourierLen())
		cold.PhysicalToFourier(a, phys)
		warm.PhysicalToFourier(b, phys)
		for i := range a {
			if a[i] != b[i] {
				panic(fmt.Sprintf("rank %d: cache-hit engine differs at %d", c.Rank(), i))
			}
		}
		cold.Close()
		warm.Close()
	}); err != nil {
		t.Fatal(err)
	}
}

// Tuning the AT exchange is a contradiction the constructor rejects.
func TestAsyncTunedRejectsAT(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pfft.NewAsyncSlabRealTuned accepted the AT exchange")
		}
	}()
	mpi.Run(1, func(c *mpi.Comm) {
		pfft.NewAsyncSlabRealTuned(c, 8, pfft.Options{NP: 1, Exchange: exchange.AT}, tuning.Config{})
	})
}
