package mpi

import (
	"errors"
	"testing"
	"time"
)

// A deadlock confined to a sub-communicator must surface as a typed
// StallError: Split sub-worlds share the root world's watchdog.
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
		if row.w.watch != nil {
			panic("split sub-world has a watchdog despite Off")
		}
		row.Barrier()
	}, WithWatchdog(Watchdog{Off: true})); err != nil {
		t.Fatal(err)
	}
	if err := TryRun(4, func(c *Comm) {
		row, col := c.CartGrid(2, 2)
		if row.w.watch == nil || row.w.watch != c.w.watch || col.w.watch != c.w.watch {
			panic("grid sub-worlds do not share the root world's watchdog")
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

// A rank that returns from its function stops counting toward the
// quiescence check of every sub-communicator it belongs to, not just
// the root world's. The deadlock here spans three sub-worlds — rank 1
// waits on exited rank 3 in their column group, rank 0 waits on stuck
// rank 1 in their row group, rank 2 waits on exited rank 3 in theirs —
// so it is declared only once rank 3 counts as gone everywhere.
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

// TestCrossCommunicatorDeadlockNamed: a deadlock whose ranks wait in
// different communicators of one family leaves every single world with
// a member that is not blocked in it, so only a watchdog that counts a
// rank blocked in any world of its family as blocked sees it. The test
// bounds itself with a timer, so a watchdog that misses the stall fails
// it instead of hanging the binary.
func TestCrossCommunicatorDeadlockNamed(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func(c *Comm)
	}{
		// Rank 0 waits in row {0,1} for rank 1, which passes its column
		// {1,3} with rank 3 and waits in the world's barrier; rank 2
		// waits in column {0,2} for rank 0.
		{"row and world", func(c *Comm) {
			row, col := c.CartGrid(2, 2)
			if c.Rank() == 0 {
				row.Barrier()
				return
			}
			col.Barrier()
			c.Barrier()
		}},
		// A cycle through all four sub-communicators: 0 waits for 1 in
		// row {0,1}, 1 for 3 in column {1,3}, 3 for 2 in row {2,3} and 2
		// for 0 in column {0,2}.
		{"cycle", func(c *Comm) {
			row, col := c.CartGrid(2, 2)
			if c.Rank() == 0 || c.Rank() == 3 {
				row.Barrier()
			} else {
				col.Barrier()
			}
		}},
	} {
		done := make(chan error, 1)
		go func() {
			done <- TryRun(4, tc.fn, WithWatchdog(Watchdog{DeadlockAfter: 300 * time.Millisecond}))
		}()
		select {
		case err := <-done:
			var st *StallError
			if !errors.As(err, &st) {
				t.Fatalf("%s: error %T (%v) is not *StallError", tc.name, err, err)
			}
			if !st.Deadlock || st.Op != opBarrier || st.Peer < 0 {
				t.Fatalf("%s: StallError = %+v, want a named barrier deadlock", tc.name, st)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no StallError 5 s into a deadlock across communicators", tc.name)
		}
	}
}
