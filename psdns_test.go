package repro_test

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro"
)

// TestPublicAPIQuickstart exercises the documented entry points end to
// end, exactly as the package doc comment advertises.
func TestPublicAPIQuickstart(t *testing.T) {
	repro.Run(2, func(c *repro.Comm) {
		tr := repro.NewAsync(c, 16, repro.WithNP(3), repro.WithGranularity(repro.PerPencil))
		defer tr.Close()
		s := repro.NewSolver(c, 16,
			repro.WithNu(0.02),
			repro.WithScheme(repro.RK2),
			repro.WithDealias(repro.Dealias23),
			repro.WithForcing(2, 0.05),
			repro.WithTransform(tr),
		)
		s.SetRandomIsotropic(3, 0.5, 1)
		e0 := s.Energy()
		for i := 0; i < 3; i++ {
			s.Step(0.004)
		}
		if e := s.Energy(); math.IsNaN(e) || e <= 0 || e > 2*e0 {
			t.Errorf("energy %g implausible", e)
		}
		if d := s.DivergenceMax(); d > 1e-10 {
			t.Errorf("divergence %g", d)
		}
	})
}

func TestPublicAPIEngines(t *testing.T) {
	repro.Run(2, func(c *repro.Comm) {
		var engines []repro.Transform
		engines = append(engines, repro.NewSlabTransform(c, 8))
		engines = append(engines, repro.NewThreadedSlabTransform(c, 8, 2))
		engines = append(engines, repro.NewAsync(c, 8, repro.WithExchangeStrategy(repro.ExchangeChunked)))
		for i, tr := range engines {
			if tr.NXH() != 5 || tr.Slab().N != 8 {
				t.Errorf("engine %d geometry wrong", i)
			}
		}
	})
}

func TestPublicAPIPerformanceModel(t *testing.T) {
	if m := repro.Summit(); m.TotalNodes != 4608 {
		t.Error("Summit description")
	}
	res := repro.SimulateGPUStep(repro.DefaultPerf(18432, 3072, 2, repro.PerSlab))
	if res.Time < 10 || res.Time > 20 {
		t.Errorf("18432³ step time %g outside the paper's regime", res.Time)
	}
	rows := repro.Table3()
	if len(rows) != 4 {
		t.Error("Table3 rows")
	}
	tpn, gran, _ := repro.BestConfig(18432, 3072)
	if tpn != 2 || gran != repro.PerSlab {
		t.Error("BestConfig")
	}
	out := repro.RenderTimelines(repro.Fig10(), 80)
	if !strings.Contains(out, "legend") {
		t.Error("timeline rendering")
	}
}

func TestPublicAPIRegridAndSlices(t *testing.T) {
	repro.Run(2, func(c *repro.Comm) {
		small := repro.NewSolver(c, 8, repro.WithNu(0.01))
		small.SetTaylorGreen()
		big := repro.NewSolver(c, 16, repro.WithNu(0.01))
		repro.Regrid(big, small)
		if math.Abs(big.Energy()-0.125) > 1e-12 {
			t.Errorf("regridded TG energy %g", big.Energy())
		}
		plane := big.SliceZ(0, 0)
		if c.Rank() == 0 {
			var buf strings.Builder
			_ = buf
			if len(plane) != 16*16 {
				t.Errorf("plane size %d", len(plane))
			}
		}
	})
}

// TestPublicAPIChaos exercises the robustness surface end to end from
// the facade: fault injection and the watchdog's per-operation
// deadline through TryRun options, and the typed error chain
// StepStallError → StallError through errors.As.
func TestPublicAPIChaos(t *testing.T) {
	drop := repro.FaultRule{
		Src: 1, Dst: 0, Tag: repro.AnyTag,
		MinBytes: 1024, DropProb: 1,
	}
	err := repro.TryRun(2, func(c *repro.Comm) {
		// Pin the strategy: the default autotuner would run its
		// trials at construction and stall there under the 100%-drop
		// rule, before Step gets to wrap the error.
		tr := repro.NewAsync(c, 16,
			repro.WithNP(3),
			repro.WithGranularity(repro.PerPencil),
			repro.WithExchangeStrategy(repro.ExchangeFused),
		)
		defer tr.Close()
		s := repro.NewSolver(c, 16,
			repro.WithNu(0.02),
			repro.WithScheme(repro.RK2),
			repro.WithDealias(repro.Dealias23),
			repro.WithTransform(tr),
		)
		s.SetTaylorGreen()
		if c.Rank() == 1 {
			// Rank 1 gathers and then waits in the exchange's exit
			// barrier forever; starting it late keeps rank 0's wait older.
			time.Sleep(300 * time.Millisecond)
		}
		s.Step(0.004)
	},
		repro.WithFaults(&repro.Faults{Rules: []repro.FaultRule{drop}}),
		repro.WithWatchdog(repro.Watchdog{Deadline: time.Second}),
	)
	var se *repro.StepStallError
	if !errors.As(err, &se) {
		t.Fatalf("error %T (%v) does not wrap *StepStallError", err, err)
	}
	var st *repro.StallError
	if !errors.As(err, &st) || st.Rank != 0 || st.Op != "wait" {
		t.Fatalf("underlying StallError not reachable or wrong: %v", err)
	}
}

// TestPublicAPIWatchdogDeadlock: the default-on watchdog surfaces a
// plain deadlock (no faults involved) as a typed *StallError.
func TestPublicAPIWatchdogDeadlock(t *testing.T) {
	err := repro.TryRun(2, func(c *repro.Comm) {
		if c.Rank() == 0 {
			c.Barrier() // rank 1 never arrives
		}
	}, repro.WithWatchdog(repro.Watchdog{DeadlockAfter: 150 * time.Millisecond, Poll: 5 * time.Millisecond}))
	var st *repro.StallError
	if !errors.As(err, &st) {
		t.Fatalf("error %T (%v) is not *StallError", err, err)
	}
	if st.Rank != 0 || st.Op != "barrier" || !st.Deadlock {
		t.Fatalf("StallError = %+v", st)
	}
}

// TestNewTunedAsync: the tuned constructor keeps the option-given
// configuration on the dimensions the space pins, agrees on a concrete
// strategy, and rebuilds the same engine from a warm cache.
func TestNewTunedAsync(t *testing.T) {
	dir := t.TempDir()
	space := &repro.TuneSpace{PerSlab: []bool{false}}
	repro.Run(2, func(c *repro.Comm) {
		cold := repro.NewTunedAsync(c, 16, dir, space, repro.WithNP(2))
		defer cold.Close()
		warm := repro.NewTunedAsync(c, 16, dir, space, repro.WithNP(2))
		defer warm.Close()
		if st := cold.Strategy(); st == repro.ExchangeAuto || st == repro.ExchangeAT || warm.Strategy() != st {
			t.Errorf("rank %d: cold pinned %v, warm %v", c.Rank(), st, warm.Strategy())
		}
		if cold.NP() != 2 || warm.NP() != 2 {
			t.Errorf("rank %d: np %d/%d, want 2", c.Rank(), cold.NP(), warm.NP())
		}
	})
}
