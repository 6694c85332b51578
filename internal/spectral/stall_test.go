package spectral

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/mpi"
)

// TestStepAnnotatesStall: a bulk all-to-all fragment dropped during a
// time step must surface as a *StepStallError carrying the solver's
// step counter and clock, with the underlying *mpi.StallError still
// reachable through errors.As — not hang the step forever.
func TestStepAnnotatesStall(t *testing.T) {
	const n, p = 16, 2
	// Drop only bulk collective fragments (≥1KiB): the solver's small
	// control collectives and the engine construction stay healthy, so
	// the stall fires inside Step's transform waits.
	drop := mpi.FaultRule{
		Src: 1, Dst: 0, Tag: mpi.AnyTag,
		Scope: mpi.ScopeColl, MinBytes: 1024, DropProb: 1,
	}
	start := time.Now()
	err := mpi.TryRun(p, func(c *mpi.Comm) {
		// Pin the staged wire path: the default autotuner would run
		// staged trials at construction and stall there under the
		// 100%-drop rule, before Step gets to wrap the error.
		eng := core.NewAsyncSlabReal(c, n, core.Options{
			NP: 3, Granularity: core.PerPencil, WaitDeadline: 200 * time.Millisecond,
			Exchange: exchange.Staged,
		})
		defer eng.Close()
		s := New(c, n, WithNu(0.05), WithScheme(RK2), WithDealias(Dealias23), WithTransform(eng))
		s.SetTaylorGreen()
		s.Step(0.005)
	},
		mpi.WithFaults(&mpi.Faults{Rules: []mpi.FaultRule{drop}}),
		mpi.WithWatchdog(mpi.Watchdog{Off: true}), // only the engine deadline may fire
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
