package mpi

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func TestTryRunCleanReturnsNil(t *testing.T) {
	if err := TryRun(4, func(c *Comm) {
		c.Barrier()
	}); err != nil {
		t.Fatalf("clean run returned %v", err)
	}
}

func TestTryRunReturnsTypedRankError(t *testing.T) {
	cause := errors.New("boom")
	err := TryRun(3, func(c *Comm) {
		if c.Rank() == 1 {
			panic(cause)
		}
		c.Barrier() // peers block; abort must wake them
	})
	if err == nil {
		t.Fatal("TryRun returned nil for a panicking rank")
	}
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("error %T is not *RankError", err)
	}
	if re.Rank != 1 {
		t.Fatalf("RankError.Rank = %d, want 1", re.Rank)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("cause not reachable via errors.Is: %v", err)
	}
	if want := "mpi: rank 1 panicked: boom"; err.Error() != want {
		t.Fatalf("Error() = %q, want %q", err.Error(), want)
	}
}

func TestTryRunWrapsNonErrorPanics(t *testing.T) {
	err := TryRun(2, func(c *Comm) {
		if c.Rank() == 0 {
			panic("string panic")
		}
		c.Barrier()
	})
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("error %T is not *RankError", err)
	}
	if re.Rank != 0 || re.Err == nil || re.Err.Error() != "string panic" {
		t.Fatalf("unexpected RankError: %+v", re)
	}
}

func TestCollectiveSizePanicNamesRankAndCollective(t *testing.T) {
	err := TryRun(2, func(c *Comm) {
		send := make([]float64, 2*c.Size())
		recv := make([]float64, 3) // not divisible by size: invalid
		Alltoall(c, send, recv)
	})
	if err == nil {
		t.Fatal("invalid alltoall buffers did not fail the run")
	}
	msg := err.Error()
	for _, want := range []string{"alltoall", "rank"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}

func TestRunWithRecordsIntoExplicitRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	const p = 3
	const words = 8
	if err := RunWith(p, reg, func(c *Comm) {
		send := make([]float64, p*words)
		recv := make([]float64, p*words)
		Alltoall(c, send, recv)
		c.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for r := 0; r < p; r++ {
		e, ok := snap.Get("mpi.a2a.bytes", r)
		if !ok || e.Value == 0 {
			t.Fatalf("rank %d recorded no a2a bytes", r)
		}
		// Sender-side wire bytes: every block except the rank's own
		// diagonal block (loopback is free; see doc.go).
		wantBytes := fmt.Sprintf("%d", (p-1)*words*8)
		if got := fmt.Sprintf("%.0f", e.Value); got != wantBytes {
			t.Errorf("rank %d a2a bytes = %s, want %s", r, got, wantBytes)
		}
	}
	if e, ok := snap.SumOverRanks().Get("mpi.a2a.calls", metrics.NoRank); !ok || e.Value != p {
		t.Fatalf("summed a2a calls = %v, want %d", e.Value, p)
	}
}

// TestWorldEndRejectsLivePlans: a plan still registered when the run
// ends fails the run with an error naming its constructor, its call
// site and its collective sequence number; freed, the run is clean;
// and a run that already failed reports its own error, not the leak.
func TestWorldEndRejectsLivePlans(t *testing.T) {
	for _, tc := range []struct {
		name, ctor string
		build      func(c *Comm) (free func())
	}{
		{"exchange", "mpi.NewExchangePlan", func(c *Comm) func() {
			pl := NewExchangePlan[int](c, c.Size())
			return pl.Free
		}},
		{"reduce", "mpi.NewReducePlan", func(c *Comm) func() {
			pl := NewReducePlan(c, 1)
			return pl.Free
		}},
		{"sub-communicator", "mpi.NewExchangePlan", func(c *Comm) func() {
			row, _ := c.CartGrid(2, 2)
			pl := NewExchangePlan[int](row, row.Size())
			return pl.Free
		}},
	} {
		err := TryRun(4, func(c *Comm) { tc.build(c) })
		if err == nil {
			t.Fatalf("%s: a run leaving a plan registered returned nil", tc.name)
		}
		for _, want := range []string{tc.ctor, "TestWorldEndRejectsLivePlans", "tryrun_test.go:", "collective seq"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, want)
			}
		}
		if err := TryRun(4, func(c *Comm) { tc.build(c)() }); err != nil {
			t.Errorf("%s: freed plan: run returned %v", tc.name, err)
		}
		cause := errors.New("boom")
		err = TryRun(4, func(c *Comm) {
			tc.build(c)
			if c.Rank() == 2 {
				panic(cause)
			}
		})
		if !errors.Is(err, cause) || strings.Contains(err.Error(), "never freed") {
			t.Errorf("%s: failed run with a live plan returned %v, want rank 2's own panic", tc.name, err)
		}
	}
}
