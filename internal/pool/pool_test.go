package pool

import (
	"sync"
	"testing"
)

// Get hands out exactly the requested length: no buffer carries
// capacity past what it holds, whatever the length.
func TestGetExactCapacity(t *testing.T) {
	var a Arena
	for _, n := range []int{1, 63, 64, 65, 100, 128, 129, 1000, 1025} {
		c, f, c64 := a.GetComplex(n), a.GetFloat(n), a.GetComplex64(n)
		if len(c) != n || cap(c) != n || len(f) != n || cap(f) != n || len(c64) != n || cap(c64) != n {
			t.Errorf("n=%d: len/cap %d/%d, %d/%d, %d/%d", n, len(c), cap(c), len(f), cap(f), len(c64), cap(c64))
		}
		// Served from the freelist, the capacity is still exact.
		a.PutComplex(c)
		if r := a.GetComplex(n); cap(r) != n || &r[0] != &c[0] {
			t.Errorf("n=%d: recycled cap %d, same backing %v", n, cap(r), &r[0] == &c[0])
		}
	}
}

func TestReuseSameBacking(t *testing.T) {
	var a Arena
	b1 := a.GetComplex(100)
	if len(b1) != 100 || cap(b1) != 100 {
		t.Fatalf("len/cap = %d/%d", len(b1), cap(b1))
	}
	b1[0] = 7
	a.PutComplex(b1)
	b2 := a.GetComplex(100) // same length: must reuse b1's backing
	if len(b2) != 100 {
		t.Fatalf("len = %d", len(b2))
	}
	if &b1[0] != &b2[0] {
		t.Fatal("expected recycled backing array")
	}
}

// A released buffer serves only requests of its own length: neither a
// shorter nor a longer request takes it, and it is still there for one
// of its length afterwards.
func TestNoCrossLengthReuse(t *testing.T) {
	var a Arena
	b1 := a.GetFloat(128)
	a.PutFloat(b1)
	for _, n := range []int{65, 127, 129, 256} {
		if b := a.GetFloat(n); cap(b) != n || &b[0] == &b1[0] {
			t.Fatalf("a %d-element request got cap %d, b1's backing %v", n, cap(b), &b[0] == &b1[0])
		}
	}
	if b := a.GetFloat(128); &b[0] != &b1[0] {
		t.Fatal("expected the 128-element buffer back")
	}
}

func TestHitMissCounters(t *testing.T) {
	var a Arena
	h0, m0 := Stats()
	b := a.GetComplex64(256) // miss
	a.PutComplex64(b)
	a.GetComplex64(256) // hit
	h1, m1 := Stats()
	if h1-h0 < 1 {
		t.Errorf("expected ≥1 hit, got %d", h1-h0)
	}
	if m1-m0 < 1 {
		t.Errorf("expected ≥1 miss, got %d", m1-m0)
	}
}

func TestZeroLengthAndOversize(t *testing.T) {
	var a Arena
	if b := a.GetComplex(0); b != nil {
		t.Fatal("zero-length get should be nil")
	}
	a.PutComplex(make([]complex128, 10)) // any length files, no panic
}

func TestRetentionBound(t *testing.T) {
	var a Arena
	for i := 0; i < 3*maxPerLen; i++ {
		a.PutFloat(make([]float64, 64))
	}
	a.f64.mu.Lock()
	n := len(a.f64.free[64])
	a.f64.mu.Unlock()
	if n != maxPerLen {
		t.Fatalf("length 64 retained %d, want %d", n, maxPerLen)
	}
}

func TestConcurrentGetPut(t *testing.T) {
	var a Arena
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				n := 64 + (seed*131+i*17)%4000
				b := a.GetComplex(n)
				b[0], b[n-1] = 1, 2
				a.PutComplex(b)
				f := a.GetFloat(n)
				f[n-1] = 3
				a.PutFloat(f)
			}
		}(g)
	}
	wg.Wait()
}

func TestSteadyStateGetPutAllocFree(t *testing.T) {
	var a Arena
	// Warm the class, then Get/Put must not allocate.
	a.PutComplex(a.GetComplex(1 << 12))
	avg := testing.AllocsPerRun(200, func() {
		b := a.GetComplex(1 << 12)
		a.PutComplex(b)
	})
	if avg != 0 {
		t.Fatalf("steady-state Get/Put allocates %.2f per run", avg)
	}
}

// Stats reports the cumulative hit/miss totals.
func Stats() (hit, miss int64) { return hits.Load(), misses.Load() }
