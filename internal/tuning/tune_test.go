package tuning_test

import (
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/pfft"
	"repro/internal/tuning"
)

// Every rank runs exactly 3 strategies × 2 directions × 3 repetitions
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
		}, 18},
		{"async", func(c *mpi.Comm, cfg tuning.Config) interface{ Close() } {
			return pfft.NewAsyncSlabRealTuned(c, n, pfft.Options{NP: 2}, cfg)
		}, 36},
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
