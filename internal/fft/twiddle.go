package fft

import (
	"math"
	"math/cmplx"
	"sync"
	"sync/atomic"
)

// Twiddle-factor tables are pure functions of the transform length and
// read-only after construction, so every plan of a given n — across
// workers, ranks and engines — can share one table instead of
// recomputing n complex exponentials per plan. With per-worker plan
// sets (a Plan carries scratch and cannot be shared, but its twiddles
// can) this turns plan construction from O(n log n + n·exp) into a map
// lookup for every worker after the first. All strided variants index
// into the same length-n table (stride ws = N/n is applied at lookup
// time), so one entry per n covers every (n, stride) pair.
var (
	twMu     sync.RWMutex
	twTables = map[int][]complex128{}

	twiddleHits   atomic.Int64 // tables served from the shared cache
	twiddleMisses atomic.Int64 // tables computed fresh
)

// twiddles returns the shared read-only table w[j] = exp(−2πi·j/n).
// Callers must not modify the returned slice.
func twiddles(n int) []complex128 {
	twMu.RLock()
	w, ok := twTables[n]
	twMu.RUnlock()
	if ok {
		twiddleHits.Add(1)
		return w
	}
	w = make([]complex128, n)
	for j := 0; j < n; j++ {
		w[j] = cmplx.Exp(complex(0, -2*math.Pi*float64(j)/float64(n)))
	}
	twMu.Lock()
	if prev, ok := twTables[n]; ok {
		// Lost the race: keep the first table so all plans alias one
		// backing array.
		twMu.Unlock()
		twiddleHits.Add(1)
		return prev
	}
	twTables[n] = w
	twMu.Unlock()
	twiddleMisses.Add(1)
	return w
}

// blueShared is the read-only part of a Bluestein setup for one length:
// the chirp w[j] = exp(−iπ·j²/n) and the forward FFT of the padded
// conjugate chirp. Computing fb costs a full length-m transform, so
// sharing it across per-worker plans matters even more than the plain
// twiddle tables.
type blueShared struct {
	m  int
	w  []complex128
	fb []complex128
}

var (
	blueMu     sync.Mutex
	blueTables = map[int]*blueShared{}
)

// blueTablesFor returns the shared chirp tables for length n, computing
// them on first use. The returned tables are read-only.
func blueTablesFor(n int) *blueShared {
	blueMu.Lock()
	defer blueMu.Unlock()
	if t, ok := blueTables[n]; ok {
		twiddleHits.Add(1)
		return t
	}
	twiddleMisses.Add(1)
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	t := &blueShared{m: m}
	t.w = make([]complex128, n)
	for j := 0; j < n; j++ {
		// j² mod 2n keeps the argument small for large n.
		jj := (j * j) % (2 * n)
		t.w[j] = cmplx.Exp(complex(0, -math.Pi*float64(jj)/float64(n)))
	}
	// Padded kernel: c[j] = conj(w[j]) for |j| < n, wrapped at m.
	c := make([]complex128, m)
	for j := 0; j < n; j++ {
		c[j] = cmplx.Conj(t.w[j])
		if j > 0 {
			c[m-j] = cmplx.Conj(t.w[j])
		}
	}
	t.fb = make([]complex128, m)
	pm := NewPlan(m)
	pm.Forward(t.fb, c)
	pm.Release()
	blueTables[n] = t
	return t
}
