package mpi

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// Chaos coverage for the plan exchange: the failure model rides on the
// plan's barriers, the operation counter and the fault draw on
// publish. These tests pin that message faults, the watchdog and crash
// schedules all fire inside ExchangePlan.Do.

// Message faults reach Do. Each publication is one message per reader,
// drawn from the seeded (src, dst) streams, so two runs with one seed
// count the same faults on every rank, and delayed slabs still gather
// the right data. Delays adding up to several deadlock windows, while
// the ranks that are not delayed park in the exit barrier, are not a
// deadlock. A dropped slab never arrives: the reader's own Do raises
// the per-operation deadline's StallError, dated from its entry into Do
// and so older than the exit-barrier waits of the peers that gathered.
func TestPlanFaultsReachDo(t *testing.T) {
	const p, calls = 3, 12
	// Reader 0 is delayed 15 ms by every peer on every call: 180 ms
	// in all against a 40 ms deadlock window. Every other slab is
	// duplicated with probability one half, which has no effect.
	rules := []FaultRule{
		{Src: AnyRank, Dst: 0, Tag: AnyTag, Delay: 15 * time.Millisecond},
		{Src: AnyRank, Dst: AnyRank, Tag: AnyTag, DupProb: 0.5},
	}
	faultCounts := func() map[string][p]float64 {
		reg := metrics.NewRegistry()
		err := RunWith(p, reg, func(c *Comm) {
			pl := NewExchangePlan[int](c, p)
			defer pl.Free()
			src := make([]int, p)
			for i := 0; i < calls; i++ {
				for j := range src {
					src[j] = 100*i + 10*c.Rank() + j
				}
				pl.Do(src, func(srcs [][]int) {
					for r, s := range srcs {
						if s[c.Rank()] != 100*i+10*r+c.Rank() {
							panic("a faulted exchange gathered the wrong data")
						}
					}
				})
			}
		},
			WithFaults(&Faults{Seed: 5, Rules: rules}),
			WithWatchdog(Watchdog{DeadlockAfter: 40 * time.Millisecond, Poll: 5 * time.Millisecond}),
		)
		if err != nil {
			t.Fatalf("delayed plan exchanges failed: %v", err)
		}
		counts := map[string][p]float64{}
		snap := reg.Snapshot()
		for _, name := range []string{"mpi.fault.drop", "mpi.fault.dup", "mpi.fault.delay"} {
			var per [p]float64
			for r := range per {
				e, _ := snap.Get(name, r)
				per[r] = e.Value
			}
			counts[name] = per
		}
		return counts
	}
	first, second := faultCounts(), faultCounts()
	for name, per := range first {
		if per != second[name] {
			t.Fatalf("%s per rank: %v, then %v under the same seed", name, per, second[name])
		}
	}
	if d := first["mpi.fault.delay"]; d != [p]float64{0, calls, calls} {
		t.Fatalf("mpi.fault.delay per rank = %v, want every peer's slab to reader 0 delayed", d)
	}
	if dups := first["mpi.fault.dup"]; dups[0] == 0 || dups[0] == 2*calls {
		t.Fatalf("mpi.fault.dup per rank = %v: DupProb 0.5 is not drawn per slab", dups)
	}

	var raised any
	err := TryRun(p, func(c *Comm) {
		pl := NewExchangePlan[int](c, p)
		defer pl.Free()
		defer func() {
			if c.Rank() == 2 {
				raised = recover()
				panic(raised)
			}
		}()
		pl.Do(make([]int, p), func([][]int) {})
	},
		WithFaults(&Faults{Rules: []FaultRule{DropAll(1, 2, AnyTag)}}),
		WithWatchdog(Watchdog{Deadline: 150 * time.Millisecond, DeadlockAfter: time.Hour, Poll: 5 * time.Millisecond}),
	)
	var re *RankError
	var st *StallError
	if !errors.As(err, &re) || re.Rank != 2 || !errors.As(err, &st) {
		t.Fatalf("error %T (%v), want reader 2's *RankError wrapping a *StallError", err, err)
	}
	if st.Rank != 2 || st.Op != opWait || st.Peer != 1 || st.Deadlock {
		t.Fatalf("StallError = %+v, want reader 2's deadline in a collective wait for peer 1", st)
	}
	if raised != any(st) {
		t.Fatalf("reader 2's Do raised %v, want the StallError", raised)
	}
}

// A scheduled rank crash whose operation index lands on a fused Do
// must surface as a typed CrashError, with every peer woken out of
// the plan's entry barrier by the abort cascade rather than hanging.
func TestExchangePlanCrashScheduleFires(t *testing.T) {
	const p = 4
	// Op 1 is the plan-construction collective ordering on rank 2's
	// counter? Construction does not tick the op counter (no
	// maybeCrash); ops tick on Do. Crash on rank 2's second Do.
	err := TryRun(p, func(c *Comm) {
		pl := NewExchangePlan[int](c, p)
		defer pl.Free()
		src := make([]int, p)
		for i := 0; i < 3; i++ {
			pl.Do(src, func([][]int) {})
		}
	}, WithFaults(&Faults{Crash: map[int]int{2: 2}}))
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 2 {
		t.Fatalf("err = %v, want RankError on rank 2", err)
	}
	var ce *CrashError
	if !errors.As(re.Err, &ce) || ce.Op != 2 {
		t.Fatalf("cause = %v, want CrashError at op 2", re.Err)
	}
}

// A straggler that never reaches Do leaves its peers blocked in the
// plan's entry barrier; the per-operation deadline must see that
// blocked barrier (the plan's barrier is watchdog-registered) and
// abort the world with a typed StallError instead of hanging.
func TestExchangePlanStallDetectedByWatchdog(t *testing.T) {
	const p = 3
	err := TryRun(p, func(c *Comm) {
		pl := NewExchangePlan[int](c, p)
		defer pl.Free()
		if c.Rank() == 1 {
			// Straggle far beyond the per-op deadline before joining.
			time.Sleep(400 * time.Millisecond)
		}
		src := make([]int, p)
		pl.Do(src, func([][]int) {})
	}, WithWatchdog(Watchdog{Deadline: 40 * time.Millisecond, Poll: 5 * time.Millisecond}))
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want StallError from the blocked plan barrier", err)
	}
	if se.Op != opBarrier {
		t.Fatalf("StallError.Op = %q, want %q", se.Op, opBarrier)
	}
}

// A rank that exits without ever calling Do (collective-order bug)
// leaves the world globally quiescent with peers blocked in the plan
// barrier; deadlock detection must fire.
func TestExchangePlanDeadlockDetected(t *testing.T) {
	const p = 2
	err := TryRun(p, func(c *Comm) {
		pl := NewExchangePlan[int](c, p)
		if c.Rank() == 1 {
			return // never joins the exchange
		}
		src := make([]int, p)
		pl.Do(src, func([][]int) {})
	}, WithWatchdog(Watchdog{DeadlockAfter: 60 * time.Millisecond, Poll: 5 * time.Millisecond}))
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want StallError (deadlock)", err)
	}
}

// A peer panicking mid-gather must cascade: ranks blocked in the exit
// barrier are woken and the primary panic is reported.
func TestExchangePlanAbortCascadeFromGatherPanic(t *testing.T) {
	const p = 3
	err := TryRun(p, func(c *Comm) {
		pl := NewExchangePlan[int](c, p)
		defer pl.Free()
		src := make([]int, p)
		pl.Do(src, func([][]int) {
			if c.Rank() == 2 {
				panic("gather kernel fault")
			}
		})
		// Survivors would block here forever without the cascade.
		pl.Do(src, func([][]int) {})
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 2 {
		t.Fatalf("err = %v, want RankError on rank 2", err)
	}
}

// A scheduled crash firing while peers sit inside DoBounded's hard
// wait must surface as a typed CrashError: the abort cascade reaches
// the sleep-polling waiters (they check the abort flag each poll), so
// nobody hangs and no stale slab is delivered as live data — the
// gather of the waiting ranks never runs.
func TestExchangePlanBoundedCrashSurfacesCrashError(t *testing.T) {
	const p = 3
	err := TryRun(p, func(c *Comm) {
		// maxStale 0: every DoBounded hard-waits for all peers, so the
		// survivors are provably inside the bounded wait when rank 2's
		// second operation crashes instead of publishing epoch 2.
		pl := NewExchangePlanBounded[int](c, p, 0, 0)
		defer pl.Free()
		src := make([]int, p)
		gathered := 0
		for i := 0; i < 3; i++ {
			pl.DoBounded(src, func([][]int) { gathered++ }, 0)
		}
		if gathered != 3 {
			panic("gather ran a different number of times than DoBounded")
		}
	}, WithFaults(&Faults{Crash: map[int]int{2: 2}}))
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 2 {
		t.Fatalf("err = %v, want RankError on rank 2", err)
	}
	var ce *CrashError
	if !errors.As(re.Err, &ce) || ce.Op != 2 {
		t.Fatalf("cause = %v, want CrashError at op 2", re.Err)
	}
}

// A straggler that keeps the hard bound unsatisfied past the per-op
// deadline must be caught by the watchdog as a typed StallError naming
// the bounded wait, exactly as the synchronous barrier path is.
func TestExchangePlanBoundedStallDetectedByWatchdog(t *testing.T) {
	const p = 3
	err := TryRun(p, func(c *Comm) {
		pl := NewExchangePlanBounded[int](c, p, 0, 0)
		defer pl.Free()
		if c.Rank() == 1 {
			time.Sleep(400 * time.Millisecond)
		}
		pl.DoBounded(make([]int, p), func([][]int) {}, 0)
	}, WithWatchdog(Watchdog{Deadline: 40 * time.Millisecond, Poll: 5 * time.Millisecond}))
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want StallError from the bounded wait", err)
	}
	if se.Op != opBounded {
		t.Fatalf("StallError.Op = %q, want %q", se.Op, opBounded)
	}
}

// Mixed-mode plans are a collective-contract violation and must be
// rejected at plan time, whichever mode registers first: an exchange
// plan is synchronous or asynchrony-tolerant for every rank or none.
func TestExchangePlanBoundedMixedModeRejected(t *testing.T) {
	cases := []struct {
		name string
		fn   func(c *Comm)
	}{
		{"sync-vs-at", func(c *Comm) {
			if c.Rank() == 0 {
				NewExchangePlan[int](c, 2)
			} else {
				NewExchangePlanBounded[int](c, 2, 1, time.Millisecond)
			}
		}},
		{"at-vs-sync", func(c *Comm) {
			if c.Rank() == 0 {
				NewExchangePlanBounded[int](c, 2, 1, time.Millisecond)
			} else {
				NewExchangePlan[int](c, 2)
			}
		}},
		{"bound-disagrees", func(c *Comm) {
			NewExchangePlanBounded[int](c, 2, 1+c.Rank(), time.Millisecond)
		}},
		{"deadline-disagrees", func(c *Comm) {
			NewExchangePlanBounded[int](c, 2, 1, time.Duration(1+c.Rank())*time.Millisecond)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := TryRun(2, tc.fn)
			var re *RankError
			if !errors.As(err, &re) {
				t.Fatalf("err = %v, want RankError at plan time", err)
			}
			if !strings.Contains(re.Err.Error(), "collective contract violation") {
				t.Fatalf("cause = %v, want collective-contract violation", re.Err)
			}
		})
	}
}
