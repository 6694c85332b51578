package exchange

import "testing"

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []Strategy{Auto, Staged, Fused, ChunkedFused} {
		got, err := Parse(s.String())
		if err != nil || got != s {
			t.Fatalf("Parse(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	if _, err := Parse("bogus"); err == nil {
		t.Fatal("Parse(bogus) accepted")
	}
	if s, err := Parse(""); err != nil || s != Auto {
		t.Fatalf("Parse(\"\") = %v, %v; want Auto", s, err)
	}
}

func TestCodes(t *testing.T) {
	if Staged.Code() != 0 || Fused.Code() != 1 || ChunkedFused.Code() != 2 {
		t.Fatalf("gauge codes moved: %v %v %v", Staged.Code(), Fused.Code(), ChunkedFused.Code())
	}
}

// ResolveIndex must minimize the max-over-ranks cost, so a strategy that is
// fastest on one rank but pathological on another loses to a uniform
// one — and a table that includes Staged can never resolve to a
// strategy slower than Staged.
func TestResolveMaxOverRanks(t *testing.T) {
	perRank := [][]float64{
		{3.0, 1.0, 2.0}, // rank 0: fused fastest
		{3.0, 9.0, 2.5}, // rank 1: fused pathological
	}
	if got, cost := ResolveIndex(len(Concrete), perRank); Concrete[got] != ChunkedFused || cost != 2.5 {
		t.Fatalf("ResolveIndex = %v (cost %v), want ChunkedFused at 2.5 (min of max)", Concrete[got], cost)
	}
}

func TestResolveNeverRegressesStaged(t *testing.T) {
	perRank := [][]float64{{1.0, 5.0, 7.0}, {1.2, 4.0, 9.0}}
	if got, _ := ResolveIndex(len(Concrete), perRank); Concrete[got] != Staged {
		t.Fatalf("ResolveIndex = %v, want Staged when it measured fastest", Concrete[got])
	}
}

func TestResolveTiesAndInvalid(t *testing.T) {
	// Exact tie breaks toward the earlier candidate on every rank.
	if got, _ := ResolveIndex(2, [][]float64{{2, 2}}); got != 0 {
		t.Fatalf("tie broke to %d, want 0", got)
	}
	// A rank that failed to measure (non-positive) disqualifies the
	// candidate everywhere; with every candidate disqualified the
	// winner defaults to 0 at cost -1.
	if got, _ := ResolveIndex(2, [][]float64{{5, 0}, {5, 1}}); got != 0 {
		t.Fatalf("invalid measurement resolved to %d, want 0", got)
	}
	if got, cost := ResolveIndex(2, [][]float64{{0, 1}, {1, -1}}); got != 0 || cost != -1 {
		t.Fatalf("all-invalid table resolved to %d at cost %v, want 0 at -1", got, cost)
	}
}
