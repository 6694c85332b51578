package repro_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro"
)

// TestMetricsEndToEnd drives one asynchronous RK2 step with an
// explicit registry and checks that the runtime recorded real traffic:
// non-zero all-to-all bytes on every rank and per-phase step timings
// (the measurement the paper's Table 3 / Fig 10 reporting rests on).
// Packed device-to-host bytes are recorded exactly where a pack runs:
// on the single-precision wire, whose pack narrows; on the
// double-precision wire every strategy's unit exchange starts from the
// slab itself and records none.
func TestMetricsEndToEnd(t *testing.T) {
	const p = 2
	reg := repro.NewMetricsRegistry()
	var strategy repro.ExchangeStrategy
	err := repro.RunWithMetrics(p, reg, func(c *repro.Comm) {
		strategy = asyncStep(c)
	})
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	for r := 0; r < p; r++ {
		if e, ok := snap.Get("exchange.bytes", r); !ok || e.Value == 0 {
			t.Errorf("rank %d: no exchange bytes recorded", r)
		}
		if e, ok := snap.Get("phase.step", r); !ok || e.Count == 0 || e.Value <= 0 {
			t.Errorf("rank %d: no step wall time recorded", r)
		}
		if e, ok := snap.Get("phase.pipeline", r); !ok || e.Count == 0 {
			t.Errorf("rank %d: no pipeline phase samples recorded", r)
		}
		if e, _ := snap.Get("gpu.d2h.bytes", r); e.Value > 0 {
			t.Errorf("rank %d: %v packed device-to-host bytes on the f64 %s engine", r, e.Value, strategy)
		}
	}
	// The paper's reduction: one row per metric, max over ranks.
	red := snap.MaxOverRanks()
	if e, ok := red.Get("phase.step", repro.NoRank); !ok || e.Value <= 0 {
		t.Error("max-over-ranks reduction lost phase.step")
	}

	// The snapshot merges into a Chrome trace alongside timelines.
	var buf bytes.Buffer
	if err := repro.WriteChromeTraceWithMetrics(&buf, repro.Fig10()[:1], snap); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"ph":"C"`, "exchange.bytes"} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome trace missing %q", want)
		}
	}

	for _, tc := range []struct {
		name string
		opts []repro.AsyncOption
		pack bool
	}{
		{"fused", []repro.AsyncOption{repro.WithExchangeStrategy(repro.ExchangeFused)}, false},
		{"fused f32", []repro.AsyncOption{repro.WithExchangeStrategy(repro.ExchangeFused), repro.WithSingleComm()}, true},
		{"chunked", []repro.AsyncOption{repro.WithExchangeStrategy(repro.ExchangeChunked)}, false},
		{"chunked f32", []repro.AsyncOption{repro.WithExchangeStrategy(repro.ExchangeChunked), repro.WithSingleComm()}, true},
	} {
		reg := repro.NewMetricsRegistry()
		if err := repro.RunWithMetrics(p, reg, func(c *repro.Comm) { asyncStep(c, tc.opts...) }); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		for r := 0; r < p; r++ {
			if e, _ := snap.Get("gpu.d2h.bytes", r); (e.Value > 0) != tc.pack {
				t.Errorf("%s engine, rank %d: %v packed device-to-host bytes, want some: %v", tc.name, r, e.Value, tc.pack)
			}
		}
	}
}

// asyncStep runs one dealiased RK2 step of Taylor–Green on a batched
// engine (np = 2, per pencil), which records into the world's registry,
// and reports the engine's strategy.
func asyncStep(c *repro.Comm, opts ...repro.AsyncOption) repro.ExchangeStrategy {
	const n = 16
	tr := repro.NewAsync(c, n, append([]repro.AsyncOption{
		repro.WithNP(2),
		repro.WithGranularity(repro.PerPencil),
	}, opts...)...)
	defer tr.Close()
	s := repro.NewSolver(c, n,
		repro.WithNu(0.02),
		repro.WithScheme(repro.RK2),
		repro.WithDealias(repro.Dealias23),
		repro.WithTransform(tr),
	)
	s.SetTaylorGreen()
	s.Step(0.004)
	return tr.Strategy()
}

// TestTryRunSurfacesRankError checks the public error contract: a
// panicking rank comes back as a typed *RankError, not a crash.
func TestTryRunSurfacesRankError(t *testing.T) {
	err := repro.TryRun(2, func(c *repro.Comm) {
		if c.Rank() == 1 {
			panic("kaboom")
		}
		c.Barrier()
	})
	var re *repro.RankError
	if !errors.As(err, &re) {
		t.Fatalf("error %T is not *RankError", err)
	}
	if re.Rank != 1 {
		t.Fatalf("RankError.Rank = %d, want 1", re.Rank)
	}
}
