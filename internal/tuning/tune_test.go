package tuning_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/exchange"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/pfft"
	"repro/internal/tuning"
)

// Every rank runs exactly 2 strategies × 2 directions × 3 repetitions
// per trial engine on a cold cache — one engine for the slab's default
// space, one per granularity for the batched engine's — and none on a
// warm one.
func TestTrialCountsPerRank(t *testing.T) {
	const n, p = 16, 2
	for _, tc := range []struct {
		name  string
		build func(c *mpi.Comm, cfg tuning.Config) interface{ Close() }
		cold  int64
	}{
		{"slab", func(c *mpi.Comm, cfg tuning.Config) interface{ Close() } {
			return pfft.NewRealTuned(c, n, 1, tuning.DecompSlab, cfg)
		}, 12},
		{"async", func(c *mpi.Comm, cfg tuning.Config) interface{ Close() } {
			return pfft.NewAsyncSlabRealTuned(c, n, pfft.Options{NP: 2}, cfg)
		}, 24},
	} {
		dir := t.TempDir()
		reg := metrics.NewRegistry()
		reg.SetOn(true)
		if err := mpi.RunWith(p, reg, func(c *mpi.Comm) {
			cfg := tuning.Config{Cache: tuning.Open(dir)}
			trials := c.Metrics().CounterRank("tune.trials", c.Rank())
			for _, want := range []struct {
				cache string
				n     int64
			}{{"cold", tc.cold}, {"warm", 0}} {
				before := trials.Value()
				tc.build(c, cfg).Close()
				if got := trials.Value() - before; got != want.n {
					panic(fmt.Sprintf("%s, %s cache, rank %d: %d trials, want %d", tc.name, want.cache, c.Rank(), got, want.n))
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// Strategy values are persisted as integers, and 1 is the retired
// staged strategy: a hand-written cache entry naming it in either
// direction is a miss, so the tuned constructor runs its trials and
// replaces the entry with a concrete point that the next build replays
// without trials.
func TestRetiredStrategyCacheEntryRetunes(t *testing.T) {
	const n, p = 16, 2
	key := tuning.Key{Engine: "slab", N: n, P: p, Maxprocs: runtime.GOMAXPROCS(0), Machine: hw.Fingerprint()}
	for _, pair := range [][2]int{{1, 2}, {3, 1}} {
		dir := t.TempDir()
		file := fmt.Sprintf(`{"schema": %d, "entries": [{"key": {"engine": %q, "n": %d, "p": %d, "maxprocs": %d, "machine": %q},
			"point": {"strategy": %d, "strategy_zy": %d, "per_slab": true, "np": 1, "workers": 1, "single": false},
			"cost_seconds": 0.001}]}`, tuning.SchemaVersion, key.Engine, key.N, key.P, key.Maxprocs, key.Machine, pair[0], pair[1])
		if err := os.WriteFile(filepath.Join(dir, "tuning.json"), []byte(file), 0o644); err != nil {
			t.Fatal(err)
		}
		if pt, ok := tuning.Open(dir).Lookup(key); ok {
			t.Fatalf("strategies %v: lookup hit %+v, want a miss", pair, pt)
		}
		reg := metrics.NewRegistry()
		reg.SetOn(true)
		if err := mpi.RunWith(p, reg, func(c *mpi.Comm) {
			cfg := tuning.Config{Cache: tuning.Open(dir)}
			trials := c.Metrics().CounterRank("tune.trials", c.Rank())
			for _, want := range []int64{12, 0} {
				before := trials.Value()
				pfft.NewRealTuned(c, n, 1, tuning.DecompSlab, cfg).Close()
				if got := trials.Value() - before; got != want {
					panic(fmt.Sprintf("strategies %v, rank %d: %d trials, want %d", pair, c.Rank(), got, want))
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		pt, ok := tuning.Open(dir).Lookup(key)
		if !ok || !slices.Contains(exchange.Concrete, pt.Strategy) || !slices.Contains(exchange.Concrete, pt.StrategyZY) {
			t.Fatalf("strategies %v: after re-tuning the cache holds %+v (hit %v), want a concrete point", pair, pt, ok)
		}
	}
}
