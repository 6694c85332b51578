package fft

import (
	"math"
	"testing"
)

// Two plans of the same length must share one twiddle backing array.
func TestTwiddleTableShared(t *testing.T) {
	p1 := NewPlan(96)
	p2 := NewPlan(96)
	if &p1.w[0] != &p2.w[0] {
		t.Fatal("plans of equal length do not share the twiddle table")
	}
	p1.Release()
	p2.Release()
}

// A RealPlan's wr table is a prefix of the shared full-length table.
func TestRealPlanSharesTwiddlePrefix(t *testing.T) {
	rp := NewRealPlan(128)
	w := twiddles(128)
	if &rp.wr[0] != &w[0] {
		t.Fatal("real plan wr is not the shared table prefix")
	}
	rp.Release()
}

// Bluestein chirp tables are shared across plans of the same length.
func TestBluesteinTablesShared(t *testing.T) {
	p1 := NewPlan(67) // prime > maxDirectPrime
	p2 := NewPlan(67)
	if p1.blue == nil || p2.blue == nil {
		t.Fatal("expected Bluestein path for n=67")
	}
	if &p1.blue.w[0] != &p2.blue.w[0] || &p1.blue.fb[0] != &p2.blue.fb[0] {
		t.Fatal("Bluestein plans do not share chirp tables")
	}
	p1.Release()
	p2.Release()
}

func TestTwiddleCacheHitCounting(t *testing.T) {
	h0, _ := TwiddleCacheStats()
	p1 := NewPlan(40)
	p2 := NewPlan(40)
	h1, _ := TwiddleCacheStats()
	if h1 <= h0 {
		t.Fatalf("expected twiddle hits to grow, got %d → %d", h0, h1)
	}
	p1.Release()
	p2.Release()
}

// Transforms must stay correct after Release/re-plan cycling through
// the arena (recycled scratch is not zeroed).
func TestPlanCorrectAfterPoolCycling(t *testing.T) {
	const n = 48
	want := make([]complex128, n)
	src := make([]complex128, n)
	for i := range src {
		src[i] = complex(math.Sin(float64(3*i)), math.Cos(float64(i)))
	}
	p := NewPlan(n)
	p.Forward(want, src)
	p.Release()
	for iter := 0; iter < 4; iter++ {
		q := NewPlan(n)
		got := make([]complex128, n)
		q.Forward(got, src)
		for i := range got {
			if d := got[i] - want[i]; math.Hypot(real(d), imag(d)) > 1e-12 {
				t.Fatalf("iter %d: mismatch at %d: %v vs %v", iter, i, got[i], want[i])
			}
		}
		q.Release()
	}
}

// TwiddleCacheStats reports the cumulative shared-table hit/miss totals
// (plain twiddle tables plus Bluestein chirp tables).
func TwiddleCacheStats() (hit, miss int64) {
	return twiddleHits.Load(), twiddleMisses.Load()
}
