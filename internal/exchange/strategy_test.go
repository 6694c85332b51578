package exchange

import (
	"slices"
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []Strategy{Auto, Fused, ChunkedFused, AT} {
		got, err := Parse(s.String())
		if err != nil || got != s {
			t.Fatalf("Parse(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for _, bogus := range []string{"bogus", "staged"} {
		if _, err := Parse(bogus); err == nil || !strings.Contains(err.Error(), "want auto, fused, chunked or at") {
			t.Fatalf("Parse(%q) = %v; want an error naming the accepted values", bogus, err)
		}
	}
	if s, err := Parse(""); err != nil || s != Auto {
		t.Fatalf("Parse(\"\") = %v, %v; want Auto", s, err)
	}
}

func TestCodes(t *testing.T) {
	if Fused.Code() != 1 || ChunkedFused.Code() != 2 || AT.Code() != 3 {
		t.Fatalf("gauge codes moved: %v %v %v", Fused.Code(), ChunkedFused.Code(), AT.Code())
	}
	// The tuning cache persists these values: they must not move, and 1
	// (the retired staged strategy) must name nothing an engine runs.
	if Auto != 0 || Fused != 2 || ChunkedFused != 3 || AT != 4 {
		t.Fatalf("strategy values moved: %d %d %d %d", Auto, Fused, ChunkedFused, AT)
	}
	if slices.Contains(Concrete, Strategy(1)) {
		t.Fatal("retired strategy 1 is concrete")
	}
}
