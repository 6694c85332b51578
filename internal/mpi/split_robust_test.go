package mpi

import (
	"errors"
	"testing"
	"time"
)

// A deadlock confined to a sub-communicator must surface as a typed
// StallError: Split sub-worlds run their own watchdog under the
// parent's configuration.
func TestSplitInheritsWatchdog(t *testing.T) {
	err := TryRun(4, func(c *Comm) {
		row := c.Split(c.Rank()/2, c.Rank()%2)
		if c.Rank() < 2 {
			// Row 0 deadlocks on mismatched collectives inside the
			// sub-comm.
			if row.Rank() == 0 {
				row.Barrier()
			} else {
				Allgather(row, []int{1}, make([]int, 2))
			}
		} else {
			// Row 1 stays healthy, then blocks in a parent-world
			// barrier it can never pass (row 0 is stuck) — the abort
			// cascade must wake it.
			AllreduceSum(row, []float64{1})
			c.Barrier()
		}
	}, fastWatch())
	var st *StallError
	if !errors.As(err, &st) {
		t.Fatalf("error %T (%v) is not *StallError", err, err)
	}
	if st.Op != opBarrier || !st.Deadlock || st.Rank > 1 {
		t.Fatalf("StallError = %+v, want a barrier deadlock inside row 0's sub-communicator", st)
	}
}

// A crash schedule follows the rank into sub-communicators: the
// operation count is per communicator, so ops issued only on the
// sub-communicator still advance toward the scheduled crash.
func TestSplitInheritsCrashSchedule(t *testing.T) {
	// Rank 3 issues only two operations on the world communicator
	// (inside Split itself), so a crash scheduled for operation 5 can
	// only fire through the sub-communicator's inherited schedule.
	err := TryRun(4, func(c *Comm) {
		col := c.Split(c.Rank()%2, c.Rank()/2)
		for i := 0; i < 8; i++ {
			col.Barrier()
		}
	}, fastWatch(), WithFaults(&Faults{Crash: map[int]int{3: 5}}))
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T (%v) is not *CrashError", err, err)
	}
	if ce.Op != 5 {
		t.Fatalf("CrashError = %+v, want crash at sub-communicator op 5", ce)
	}
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 3 {
		t.Fatalf("error %v does not name world rank 3", err)
	}
}

// A watchdog-off world must not grow monitors through Split, and a
// healthy split-heavy run must stay clean under the default watchdog.
func TestSplitWatchdogOffAndHealthy(t *testing.T) {
	if err := TryRun(4, func(c *Comm) {
		row := c.Split(c.Rank()/2, c.Rank())
		if row.w.watch != nil || row.w.wdOn {
			panic("split sub-world has a watchdog despite Off")
		}
		row.Barrier()
	}, WithWatchdog(Watchdog{Off: true})); err != nil {
		t.Fatal(err)
	}
	if err := TryRun(4, func(c *Comm) {
		row, col := c.CartGrid(2, 2)
		if row.w.watch == nil || col.w.watch == nil {
			panic("grid sub-worlds missing inherited watchdogs")
		}
		for i := 0; i < 3; i++ {
			row.Barrier()
			time.Sleep(time.Millisecond)
			col.Barrier()
		}
	}, fastWatch()); err != nil {
		t.Fatal(err)
	}
}

// A rank that returns from its function stops counting toward every
// sub-communicator's quiescence check, not just the root world's. The
// deadlock here spans three sub-worlds — rank 1 waits on exited rank
// 3 in their column group, rank 0 waits on stuck rank 1 in their row
// group, rank 2 waits on exited rank 3 in theirs — so no sub-world is
// fully blocked until the exit cascade marks rank 3 done in each
// world it belongs to.
func TestRankExitCascadesIntoSubWorlds(t *testing.T) {
	err := TryRun(4, func(c *Comm) {
		row, col := c.CartGrid(2, 2)
		if c.Rank() == 3 {
			return // never enters the exchanges below
		}
		if c.Rank() == 1 {
			AllreduceSum(col, []float64{1}) // col group {1,3}: peer 3 exited
		} else {
			row.Barrier() // row group {0,1}: rank 1 is stuck above
		}
	}, fastWatch())
	var st *StallError
	if !errors.As(err, &st) {
		t.Fatalf("error %T (%v) is not *StallError", err, err)
	}
}
