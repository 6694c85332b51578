package tuning

import (
	"errors"
	"testing"
	"time"

	"repro/internal/exchange"
	"repro/internal/mpi"
)

// resolveIndex must minimize the max-over-ranks cost, so a strategy that is
// fastest on one rank but pathological on another loses to a uniform
// one — and a table that includes Staged can never resolve to a
// strategy slower than Staged.
func TestResolveMaxOverRanks(t *testing.T) {
	perRank := [][]float64{
		{3.0, 1.0, 2.0}, // rank 0: fused fastest
		{3.0, 9.0, 2.5}, // rank 1: fused pathological
	}
	if got, cost := resolveIndex(len(exchange.Concrete), perRank); exchange.Concrete[got] != exchange.ChunkedFused || cost != 2.5 {
		t.Fatalf("resolveIndex = %v (cost %v), want ChunkedFused at 2.5 (min of max)", exchange.Concrete[got], cost)
	}
}

func TestResolveNeverRegressesStaged(t *testing.T) {
	perRank := [][]float64{{1.0, 5.0, 7.0}, {1.2, 4.0, 9.0}}
	if got, _ := resolveIndex(len(exchange.Concrete), perRank); exchange.Concrete[got] != exchange.Staged {
		t.Fatalf("resolveIndex = %v, want Staged when it measured fastest", exchange.Concrete[got])
	}
}

func TestResolveTiesAndInvalid(t *testing.T) {
	// Exact tie breaks toward the earlier candidate on every rank.
	if got, _ := resolveIndex(2, [][]float64{{2, 2}}); got != 0 {
		t.Fatalf("tie broke to %d, want 0", got)
	}
	// A rank that failed to measure (non-positive) disqualifies the
	// candidate everywhere; with every candidate disqualified the
	// winner defaults to 0 at cost -1.
	if got, _ := resolveIndex(2, [][]float64{{5, 0}, {5, 1}}); got != 0 {
		t.Fatalf("invalid measurement resolved to %d, want 0", got)
	}
	if got, cost := resolveIndex(2, [][]float64{{0, 1}, {1, -1}}); got != 0 || cost != -1 {
		t.Fatalf("all-invalid table resolved to %d at cost %v, want 0 at -1", got, cost)
	}
}

// TestTunerAgreementDropStallsReader: the tuner's agreement Allgather
// (resolveTimes) is a collective round like any exchange, so a dropped
// fragment of it starves its reader instead of handing it a stale
// table, and the watchdog's deadline names that reader, the wait it is
// in and the peer whose times never arrived.
func TestTunerAgreementDropStallsReader(t *testing.T) {
	err := mpi.TryRun(2, func(c *mpi.Comm) {
		resolveTimes(c, []float64{1e-3, 2e-3, 3e-3})
	},
		mpi.WithFaults(&mpi.Faults{Rules: []mpi.FaultRule{{Src: 1, Dst: 0, Tag: mpi.AnyTag, DropProb: 1}}}),
		mpi.WithWatchdog(mpi.Watchdog{Deadline: 150 * time.Millisecond, DeadlockAfter: time.Hour, Poll: 5 * time.Millisecond}),
	)
	var re *mpi.RankError
	var st *mpi.StallError
	if !errors.As(err, &re) || re.Rank != 0 || !errors.As(err, &st) {
		t.Fatalf("error %T (%v), want rank 0's *RankError wrapping a *StallError", err, err)
	}
	if st.Rank != 0 || st.Op != "wait" || st.Peer != 1 || st.Deadlock {
		t.Fatalf("StallError = %+v, want rank 0's deadline in a wait for peer 1", st)
	}
}
