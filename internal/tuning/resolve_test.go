package tuning

import (
	"testing"

	"repro/internal/exchange"
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
