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
