package mpi

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// fastWatch is a tight watchdog configuration for tests: deadlocks are
// declared after 150ms of global quiescence.
func fastWatch() RunOption {
	return WithWatchdog(Watchdog{DeadlockAfter: 150 * time.Millisecond, Poll: 5 * time.Millisecond})
}

// TestDroppedMessageReturnsStallError is the acceptance test for the
// watchdog: a collective that would hang forever on a dropped fragment
// must fail fast with a typed StallError naming the starved reader,
// the peer whose publication it never got, and the collective.
func TestDroppedMessageReturnsStallError(t *testing.T) {
	start := time.Now()
	err := TryRun(2, func(c *Comm) {
		all := make([]float64, 6)
		Allgather(c, []float64{1, 2, 3}, all) // seq 1: rank 1's block never reaches rank 0
	},
		fastWatch(),
		WithFaults(&Faults{Rules: []FaultRule{DropAll(1, 0, 1)}}),
	)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stall detection took %v, want well under the test timeout", elapsed)
	}
	var st *StallError
	if !errors.As(err, &st) {
		t.Fatalf("error %T (%v) is not *StallError", err, err)
	}
	if st.Rank != 0 || st.Peer != 1 || st.Tag != 1 || st.Op != opWait {
		t.Fatalf("StallError = %+v, want rank 0 waiting for peer 1 in collective seq 1", st)
	}
	if !st.Deadlock {
		t.Fatalf("StallError.Deadlock = false, want true: %+v", st)
	}
	for _, want := range []string{"rank 0", "peer 1", "collective seq 1", "wait"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Error() = %q, missing %q", err.Error(), want)
		}
	}
}

// TestMismatchedTagDeadlock: the ranks call different collectives at
// the same point of their program — rank 0 a Barrier, rank 1 an
// Allgather — and wait for each other forever, with no faults
// involved.
func TestMismatchedTagDeadlock(t *testing.T) {
	err := TryRun(2, func(c *Comm) {
		if c.Rank() == 0 {
			c.Barrier()
		} else {
			Allgather(c, []int{1}, make([]int, 2))
		}
	}, fastWatch())
	var st *StallError
	if !errors.As(err, &st) {
		t.Fatalf("error %T (%v) is not *StallError", err, err)
	}
	if !st.Deadlock || st.Op != opBarrier || st.Peer != 1-st.Rank {
		t.Fatalf("StallError = %+v, want a deadlock in a barrier, missing the other rank", st)
	}
}

// TestPerOpDeadline: a single slow peer trips the per-operation
// deadline even though the world is not deadlocked (the peer is alive
// and computing).
func TestPerOpDeadline(t *testing.T) {
	err := TryRun(2, func(c *Comm) {
		if c.Rank() == 1 {
			time.Sleep(600 * time.Millisecond) // straggler
		}
		AllreduceSum(c, []float64{1})
	}, WithWatchdog(Watchdog{
		Deadline:      100 * time.Millisecond,
		DeadlockAfter: time.Hour, // quiescence detection out of the picture
		Poll:          5 * time.Millisecond,
	}))
	var st *StallError
	if !errors.As(err, &st) {
		t.Fatalf("error %T (%v) is not *StallError", err, err)
	}
	if st.Deadlock {
		t.Fatalf("StallError.Deadlock = true, want per-op deadline (false): %+v", st)
	}
	if st.Rank != 0 || st.Op != opBarrier || st.Peer != 1 || st.Tag != 1 {
		t.Fatalf("StallError = %+v, want rank 0 waiting on peer 1 in the allreduce's barrier (seq 1)", st)
	}
	if st.Waited < 100*time.Millisecond {
		t.Fatalf("StallError.Waited = %v, want >= deadline", st.Waited)
	}
}

// TestStallNamesLastMissingRank: the peer a barrier's stall report
// names is the rank missing when the report is made, not when the
// waiter parked — rank 1 arrives late but in time, rank 2 never does.
func TestStallNamesLastMissingRank(t *testing.T) {
	err := TryRun(3, func(c *Comm) {
		switch c.Rank() {
		case 1:
			time.Sleep(50 * time.Millisecond)
		case 2:
			time.Sleep(600 * time.Millisecond) // straggler
		}
		AllreduceSum(c, []float64{1})
	}, WithWatchdog(Watchdog{
		Deadline:      200 * time.Millisecond,
		DeadlockAfter: time.Hour,
		Poll:          5 * time.Millisecond,
	}))
	var st *StallError
	if !errors.As(err, &st) {
		t.Fatalf("error %T (%v) is not *StallError", err, err)
	}
	if st.Rank != 0 || st.Op != opBarrier || st.Peer != 2 || st.Tag != 1 {
		t.Fatalf("StallError = %+v, want rank 0 waiting on peer 2 in the allreduce's barrier (seq 1)", st)
	}
}

// TestWatchdogNoFalsePositive: a healthy world whose ranks alternate
// compute (sleep) and communication must survive a deadlock window
// much shorter than the run.
func TestWatchdogNoFalsePositive(t *testing.T) {
	err := TryRun(4, func(c *Comm) {
		send := make([]float64, 4*8)
		recv := make([]float64, 4*8)
		for it := 0; it < 6; it++ {
			Alltoall(c, send, recv)
			time.Sleep(30 * time.Millisecond) // compute
			c.Barrier()
		}
	}, WithWatchdog(Watchdog{DeadlockAfter: 60 * time.Millisecond, Poll: 5 * time.Millisecond}))
	if err != nil {
		t.Fatalf("healthy run reported %v", err)
	}
}

// TestWatchdogOff: with monitoring disabled a dropped fragment is only
// caught by the caller's own patience; verify the option wires
// through by checking a clean run still works and that Off worlds have
// no monitor state.
func TestWatchdogOff(t *testing.T) {
	err := TryRun(2, func(c *Comm) {
		c.Barrier()
	}, WithWatchdog(Watchdog{Off: true}))
	if err != nil {
		t.Fatalf("clean run with watchdog off reported %v", err)
	}
}

// TestDeadlineDeliversStallToBlockedRank: the rank the per-op deadline
// names raises the *StallError from the wait it is blocked in — every
// kind of wait; an exchange's wait for a dropped slab is
// TestPlanFaultsReachDo's — so TryRun returns it wrapped in that rank's
// *RankError, and the rank's own code sees it unwind.
func TestDeadlineDeliversStallToBlockedRank(t *testing.T) {
	sites := []struct {
		op        string
		peer, tag int                  // what the StallError names
		setup     func(c *Comm) func() // collective plan build; returns rank 0's blocking wait
	}{
		{opBarrier, 1, 1, func(c *Comm) func() {
			return func() { Allgather(c, []int{4}, make([]int, 2)) }
		}},
		{opBarrier, 1, 0, func(c *Comm) func() { return c.Barrier }},
		{opBarrier, 1, 1, func(c *Comm) func() {
			pl := NewExchangePlan[int](c, 2)
			src := make([]int, 2)
			return func() { pl.Do(src, func([][]int) {}) }
		}},
		{opBounded, -1, 1, func(c *Comm) func() {
			pl := NewExchangePlanBounded[int](c, 2, 0, 0)
			src := make([]int, 2)
			return func() { pl.DoBounded(src, func([][]int) {}, 0) }
		}},
	}
	for _, site := range sites {
		var raised any
		err := TryRun(2, func(c *Comm) {
			wait := site.setup(c)
			if c.Rank() == 1 {
				time.Sleep(600 * time.Millisecond) // alive, computing, never arriving in time
				return
			}
			defer func() {
				raised = recover()
				panic(raised)
			}()
			wait()
		}, WithWatchdog(Watchdog{Deadline: 150 * time.Millisecond, DeadlockAfter: time.Hour, Poll: 5 * time.Millisecond}))
		var re *RankError
		var st *StallError
		if !errors.As(err, &re) || re.Rank != 0 || !errors.As(err, &st) {
			t.Fatalf("%s: error %T (%v), want rank 0's *RankError wrapping a *StallError", site.op, err, err)
		}
		if st.Rank != 0 || st.Op != site.op || st.Peer != site.peer || st.Tag != site.tag || st.Deadlock {
			t.Fatalf("%s: StallError = %+v, want rank 0's deadline in %s on peer %d, seq %d",
				site.op, st, site.op, site.peer, site.tag)
		}
		if raised != any(st) {
			t.Fatalf("%s: rank 0's wait raised %v, want the StallError", site.op, raised)
		}
	}
}
