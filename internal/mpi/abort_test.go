package mpi

import (
	"strings"
	"testing"
	"time"
)

// These tests pin the MPI_Abort-style semantics added after a real
// deadlock: a panic on one rank must wake every peer blocked in any
// collective and surface the original panic, never hang.

func expectPanicContaining(t *testing.T, substr string, f func()) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		f()
	}()
	select {
	case e := <-done:
		if e == nil {
			t.Fatalf("expected panic containing %q", substr)
		}
		if s, ok := e.(string); !ok || !strings.Contains(s, substr) {
			t.Fatalf("panic %v does not contain %q", e, substr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run hung: abort cascade failed")
	}
}

func TestPanicWhilePeersInAlltoall(t *testing.T) {
	expectPanicContaining(t, "rank 2 panicked: boom", func() {
		Run(4, func(c *Comm) {
			if c.rank == 2 {
				panic("boom")
			}
			send := make([]int, 4)
			recv := make([]int, 4)
			Alltoall(c, send, recv) // would block forever without abort
		})
	})
}

func TestPanicWhilePeersInBarrier(t *testing.T) {
	expectPanicContaining(t, "rank 0 panicked", func() {
		Run(3, func(c *Comm) {
			if c.rank == 0 {
				panic("early death")
			}
			c.Barrier()
		})
	})
}

// TestPanicWhilePeersInRecv: a Gather's root, waiting to receive the
// publication of a rank that died before publishing, is woken by the
// cascade.
func TestPanicWhilePeersInRecv(t *testing.T) {
	expectPanicContaining(t, "rank 1 panicked", func() {
		Run(2, func(c *Comm) {
			if c.rank == 1 {
				panic("no send for you")
			}
			Gather(c, 0, []int{1}, make([]int, 2))
		})
	})
}

// TestPanicWhilePeersWaitOnIalltoall: peers blocked in an all-to-all's
// receive leg for a rank that died before sending are woken by the
// cascade, and the report names the dead rank.
func TestPanicWhilePeersWaitOnIalltoall(t *testing.T) {
	expectPanicContaining(t, "rank 0 panicked", func() {
		Run(3, func(c *Comm) {
			if c.rank == 0 {
				panic("dead before posting")
			}
			send := make([]int, 3)
			recv := make([]int, 3)
			Alltoall(c, send, recv)
		})
	})
}

func TestPanicCascadesIntoSplitCommunicators(t *testing.T) {
	expectPanicContaining(t, "rank 3 panicked", func() {
		Run(4, func(c *Comm) {
			sub := c.Split(c.rank%2, c.rank)
			if c.rank == 3 {
				panic("after split")
			}
			// Ranks 0..2 block on sub-communicator collectives; rank
			// 3's death must reach them through the cascade.
			v := []float64{1}
			AllreduceSum(sub, v)
			c.Barrier()
		})
	})
}

func TestOriginalPanicReportedNotTheCascade(t *testing.T) {
	// The report must name the root cause, not "world aborted".
	expectPanicContaining(t, "the real bug", func() {
		Run(4, func(c *Comm) {
			if c.rank == 1 {
				panic("the real bug")
			}
			c.Barrier()
		})
	})
}

func TestNoAbortOnCleanRun(t *testing.T) {
	// Sanity: the machinery stays invisible on healthy runs.
	for i := 0; i < 5; i++ {
		Run(4, func(c *Comm) {
			send := make([]int, 4)
			recv := make([]int, 4)
			Alltoall(c, send, recv)
			c.Barrier()
		})
	}
}
