package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exchange"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/tuning"
)

// The async whole-step tuner's default space (strategies × both
// granularities) contains only float64 points, so a tuned engine must
// be bitwise-identical to a plain engine pinned to whatever the
// trials select.
func TestAsyncTunedBitwiseIdentity(t *testing.T) {
	const n, p = 16, 4
	if err := mpi.TryRun(p, func(c *mpi.Comm) {
		opt := Options{NP: 3, Granularity: PerSlab}
		tuned := NewAsyncSlabRealTuned(c, n, opt, tuning.Config{})
		defer tuned.Close()

		// The plain engine with the tuner's own pinned configuration.
		pinned := opt
		pinned.Exchange = tuned.Strategy()
		ref := NewAsyncSlabReal(c, n, pinned)
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
// the option-given granularity alone.
func TestAsyncAutoExchangePinsConcrete(t *testing.T) {
	const n, p = 16, 4
	if err := mpi.TryRun(p, func(c *mpi.Comm) {
		tr := NewAsyncSlabReal(c, n, Options{NP: 2, Granularity: PerPencil, Exchange: exchange.Auto})
		defer tr.Close()
		st := tr.Strategy()
		if st == exchange.Auto || st == exchange.AT {
			panic(fmt.Sprintf("auto pinned %v", st))
		}
		if tr.gran != PerPencil || tr.NP() != 2 {
			panic(fmt.Sprintf("auto changed the engine: gran=%v np=%d", tr.gran, tr.NP()))
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
		opt := Options{NP: 2, Granularity: PerSlab}
		trials := c.Metrics().CounterRank("tune.trials", c.Rank())

		cold := NewAsyncSlabRealTuned(c, n, opt, cfg)
		after := trials.Value()
		if after == 0 {
			panic(fmt.Sprintf("rank %d: cold async tuning ran no trials", c.Rank()))
		}

		warm := NewAsyncSlabRealTuned(c, n, opt, cfg)
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
			t.Fatal("NewAsyncSlabRealTuned accepted the AT exchange")
		}
	}()
	mpi.Run(1, func(c *mpi.Comm) {
		NewAsyncSlabRealTuned(c, 8, Options{NP: 1, Exchange: exchange.AT}, tuning.Config{})
	})
}

// The whole-slab recv buffer exists only when the engine pins Staged,
// the one strategy that posts an all-to-all into it — plain, f32-wire
// and tuned engines alike (the tuner builds its winner from the point,
// not from a Staged trial engine).
func TestAsyncRecvOnlyUnderStaged(t *testing.T) {
	const n, p = 16, 2
	chunked := tuning.Config{Space: tuning.Space{Strategies: []exchange.Strategy{exchange.ChunkedFused}}}
	if err := mpi.TryRun(p, func(c *mpi.Comm) {
		for _, tc := range []struct {
			name  string
			build func() *AsyncSlabReal
			recv  bool
		}{
			{"staged", func() *AsyncSlabReal { return NewAsyncSlabReal(c, n, Options{NP: 2, Exchange: exchange.Staged}) }, true},
			{"staged f32", func() *AsyncSlabReal {
				return NewAsyncSlabReal(c, n, Options{NP: 2, Exchange: exchange.Staged, SingleComm: true})
			}, true},
			{"chunked", func() *AsyncSlabReal { return NewAsyncSlabReal(c, n, Options{NP: 2, Exchange: exchange.ChunkedFused}) }, false},
			{"fused f32", func() *AsyncSlabReal {
				return NewAsyncSlabReal(c, n, Options{NP: 2, Exchange: exchange.Fused, SingleComm: true})
			}, false},
			{"tuned chunked", func() *AsyncSlabReal { return NewAsyncSlabRealTuned(c, n, Options{NP: 2}, chunked) }, false},
		} {
			a := tc.build()
			var recv bool
			switch w := a.wire.(type) {
			case *wireBuf[complex128]:
				recv = w.recv != nil
			case *wireBuf[complex64]:
				recv = w.recv != nil
			}
			a.Close()
			if recv != tc.recv {
				panic(fmt.Sprintf("%s engine (pins %s): recv buffer held %v, want %v", tc.name, a.Strategy(), recv, tc.recv))
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}
