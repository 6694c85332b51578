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
func TestMetricsEndToEnd(t *testing.T) {
	const p = 2
	const n = 16
	reg := repro.NewMetricsRegistry()
	err := repro.RunWithMetrics(p, reg, func(c *repro.Comm) {
		tr := repro.NewAsync(c, n,
			repro.WithNP(2),
			repro.WithGranularity(repro.PerPencil),
			repro.WithMetrics(reg),
		)
		defer tr.Close()
		s := repro.NewSolver(c, n,
			repro.WithNu(0.02),
			repro.WithScheme(repro.RK2),
			repro.WithDealias(repro.Dealias23),
			repro.WithTransform(tr),
		)
		s.SetTaylorGreen()
		s.Step(0.004)
	})
	if err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	for r := 0; r < p; r++ {
		if e, ok := snap.Get("mpi.a2a.bytes", r); !ok || e.Value == 0 {
			t.Errorf("rank %d: no all-to-all bytes recorded", r)
		}
		if e, ok := snap.Get("phase.step", r); !ok || e.Count == 0 || e.Value <= 0 {
			t.Errorf("rank %d: no step wall time recorded", r)
		}
		if e, ok := snap.Get("phase.pipeline", r); !ok || e.Count == 0 {
			t.Errorf("rank %d: no pipeline phase samples recorded", r)
		}
		if e, ok := snap.Get("gpu.d2h.bytes", r); !ok || e.Value == 0 {
			t.Errorf("rank %d: no packed device-to-host bytes recorded", r)
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
	for _, want := range []string{`"ph":"C"`, "mpi.a2a.bytes"} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome trace missing %q", want)
		}
	}
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
