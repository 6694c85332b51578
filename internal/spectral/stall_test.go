package spectral

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/exchange"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/pfft"
)

// TestStepAnnotatesStall: a bulk exchange slab dropped during a time
// step must surface as a *StepStallError carrying the solver's
// step counter and clock, with the underlying *mpi.StallError still
// reachable through errors.As — not hang the step forever.
func TestStepAnnotatesStall(t *testing.T) {
	const n, p = 16, 2
	// Drop only bulk collective fragments (≥1KiB): the solver's small
	// control collectives and the engine construction stay healthy, so
	// the stall fires inside Step's transform waits.
	drop := mpi.FaultRule{
		Src: 1, Dst: 0, Tag: mpi.AnyTag,
		MinBytes: 1024, DropProb: 1,
	}
	start := time.Now()
	err := mpi.TryRun(p, func(c *mpi.Comm) {
		// Pin the strategy: the default autotuner would run its trials
		// at construction and stall there under the 100%-drop rule,
		// before Step gets to wrap the error.
		eng := pfft.NewAsyncSlabReal(c, n, pfft.Options{
			NP: 3, Granularity: pfft.PerPencil, Exchange: exchange.Fused,
		})
		defer eng.Close()
		s := New(c, n, WithNu(0.05), WithScheme(RK2), WithDealias(Dealias23), WithTransform(eng))
		s.SetTaylorGreen()
		if c.Rank() == 1 {
			// Rank 1 gathers rank 0's slab (only its own are dropped) and
			// then waits in the exchange's exit barrier forever. Starting
			// it late keeps rank 0's wait the older one however the
			// scheduler treats rank 0.
			time.Sleep(300 * time.Millisecond)
		}
		s.Step(0.005)
	},
		mpi.WithFaults(&mpi.Faults{Rules: []mpi.FaultRule{drop}}),
		mpi.WithWatchdog(mpi.Watchdog{Deadline: time.Second, DeadlockAfter: time.Hour}),
	)
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("stalled step took %v to fail", elapsed)
	}
	var se *StepStallError
	if !errors.As(err, &se) {
		t.Fatalf("error %T (%v) does not wrap *StepStallError", err, err)
	}
	if se.Step != 0 || se.Time != 0 {
		t.Fatalf("StepStallError = %+v, want the first step at t=0", se)
	}
	var st *mpi.StallError
	if !errors.As(err, &st) {
		t.Fatalf("underlying *mpi.StallError not reachable: %v", err)
	}
	if st.Rank != 0 || st.Op != "wait" {
		t.Fatalf("StallError = %+v, want rank 0 blocked in a collective wait", st)
	}
}

// lateTransform holds its rank out of the next transform for delay
// once armed, as a straggler does: the peers reach that transform's
// exchange first and wait there.
type lateTransform struct {
	Transform
	delay time.Duration
}

func (t *lateTransform) hold() {
	time.Sleep(t.delay)
	t.delay = 0
}

func (t *lateTransform) FourierToPhysical(phys []float64, four []complex128) {
	t.hold()
	t.Transform.FourierToPhysical(phys, four)
}

func (t *lateTransform) PhysicalToFourier(four []complex128, phys []float64) {
	t.hold()
	t.Transform.PhysicalToFourier(four, phys)
}

// TestStallAnnotatedOnEveryEngine: with the watchdog's per-operation
// Deadline the only stall bound, a rank that waits past it inside any
// engine's exchange raises the StallError from that wait, so Step
// annotates it with its step and time — on the slab engine under every
// strategy and on the batched engine at both granularities.
func TestStallAnnotatedOnEveryEngine(t *testing.T) {
	const n, p, dt = 16, 2, 0.005
	engines := []struct {
		name  string
		build func(c *mpi.Comm) Transform
	}{
		{"slab/fused", func(c *mpi.Comm) Transform { return pfft.NewSlabRealStrategy(c, n, 1, exchange.Fused) }},
		{"slab/chunked", func(c *mpi.Comm) Transform { return pfft.NewSlabRealStrategy(c, n, 1, exchange.ChunkedFused) }},
		{"batched/fused/perslab", func(c *mpi.Comm) Transform {
			return pfft.NewAsyncSlabReal(c, n, pfft.Options{NP: 3, Granularity: pfft.PerSlab, Exchange: exchange.Fused})
		}},
		{"batched/chunked", func(c *mpi.Comm) Transform {
			return pfft.NewAsyncSlabReal(c, n, pfft.Options{NP: 3, Granularity: pfft.PerPencil, Exchange: exchange.ChunkedFused})
		}},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			err := mpi.TryRun(p, func(c *mpi.Comm) {
				eng := e.build(c)
				defer eng.(interface{ Close() }).Close()
				tr := &lateTransform{Transform: eng}
				s := New(c, n, WithNu(0.05), WithScheme(RK2), WithDealias(Dealias23), WithTransform(tr))
				s.SetTaylorGreen()
				s.Step(dt)
				if c.Rank() == 1 {
					tr.delay = 1500 * time.Millisecond // alive, but far past the deadline
				}
				s.Step(dt)
			}, mpi.WithWatchdog(mpi.Watchdog{Deadline: 500 * time.Millisecond, Poll: 5 * time.Millisecond}))
			var se *StepStallError
			if !errors.As(err, &se) {
				t.Fatalf("error %T (%v) does not wrap *StepStallError", err, err)
			}
			if se.Step != 1 || se.Time != dt {
				t.Fatalf("StepStallError = %+v, want the second step at t=%g", se, dt)
			}
			st := se.Err
			if st.Rank != 0 || st.Deadlock || (st.Op != "barrier" && st.Op != "wait") {
				t.Fatalf("StallError = %+v, want rank 0's deadline in a barrier or wait", st)
			}
			t.Logf("%v", se)
		})
	}
}

// TestEnergyBitwiseUnderDelayedAllreduce: a diagnostic's one-shot
// allreduce is a collective round like any exchange, so message faults
// reach it. Every fragment delayed and duplicated, Solver.Energy at
// P = 2 still returns the bitwise value of a clean run, and each rank
// counts the delay it drew for its peer inside that one call.
func TestEnergyBitwiseUnderDelayedAllreduce(t *testing.T) {
	const n, p = 16, 2
	energy := func(opts ...mpi.RunOption) [p]float64 {
		var got [p]float64
		reg := metrics.NewRegistry()
		err := mpi.RunWith(p, reg, func(c *mpi.Comm) {
			eng := pfft.NewSlabRealStrategy(c, n, 1, exchange.Fused)
			defer eng.Close()
			s := New(c, n, WithNu(0.05), WithTransform(eng))
			defer s.Close()
			s.SetTaylorGreen()
			s.Step(0.005)
			delays := reg.CounterRank("mpi.fault.delay", c.Rank())
			before := delays.Value()
			got[c.Rank()] = s.Energy()
			if len(opts) > 0 && delays.Value()-before != 1 {
				panic(fmt.Sprintf("rank %d drew %d delays in Energy, want 1", c.Rank(), delays.Value()-before))
			}
		}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	clean := energy()
	faulty := energy(mpi.WithFaults(&mpi.Faults{Rules: []mpi.FaultRule{{
		Src: mpi.AnyRank, Dst: mpi.AnyRank, Tag: mpi.AnyTag,
		Delay: 2 * time.Millisecond, DupProb: 1,
	}}}))
	if faulty != clean || clean[0] != clean[1] {
		t.Fatalf("energy per rank %v under delays, %v clean: want one bitwise value", faulty, clean)
	}
}
