// Package pool is the per-process buffer arena of the hot path:
// exact-length freelists of []complex128, []float64 and []complex64
// slices that the transform engines (internal/fft plans, the transpose
// pack/unpack staging, the pfft and core pipeline buffers) check out at
// plan time and recycle across cycles instead of allocating afresh.
//
// The paper's code never allocates inside a time step — every pencil,
// staging and wire buffer is carved out of arenas sized at start-up
// (§3.5 triple-buffering). This package is the software analogue for
// the Go port: steady-state transform and step execution performs zero
// heap allocations because every buffer is checked out at plan time
// and returned when its engine or plan closes.
//
// Freelists are keyed by exact length. Get returns a slice whose
// capacity is its length, so a buffer costs only what it holds — every
// Get happens at plan time and no step takes a buffer, so rounding up
// would recycle nothing. A released buffer serves only requests of its
// own length, which is what rebuilding an engine of the same shape
// (the tuner's trial engines) asks for. The memory is NOT zeroed —
// callers are expected to overwrite it fully, as every pack/transform
// kernel in this codebase does. Put recycles a slice; per-length
// retention is bounded so a burst cannot pin memory forever.
//
// Hits, misses and puts accumulate in package atomics (the same
// pattern as internal/fft's counters) and PublishMetrics copies them
// into a registry as pool.hit / pool.miss / pool.put, so buffer-reuse
// efficiency is observable rather than asserted. hit + miss − put is
// the number of buffers checked out: a steady-state method (a step, a
// diagnostic) leaves it where it found it.
package pool

import (
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// maxPerLen bounds how many free buffers of one length a freelist
// retains; beyond it Put drops the buffer for the GC to take.
const maxPerLen = 64

var (
	hits   atomic.Int64 // Gets served from a freelist
	misses atomic.Int64 // Gets that fell through to make
	puts   atomic.Int64 // buffers handed back
)

// freelist is one element type's stacks of free buffers, keyed by
// length.
type freelist[T any] struct {
	mu   sync.Mutex
	free map[int][][]T
}

func (f *freelist[T]) get(n int) []T {
	if n == 0 {
		return nil
	}
	f.mu.Lock()
	if s := f.free[n]; len(s) > 0 {
		buf := s[len(s)-1]
		s[len(s)-1] = nil
		f.free[n] = s[:len(s)-1]
		f.mu.Unlock()
		hits.Add(1)
		return buf
	}
	f.mu.Unlock()
	misses.Add(1)
	return make([]T, n)
}

func (f *freelist[T]) put(buf []T) {
	// File by capacity: a buffer from get has cap == len, and one that
	// was resliced shorter still serves requests of its full length.
	n := cap(buf)
	if n == 0 {
		return
	}
	puts.Add(1)
	f.mu.Lock()
	if f.free == nil {
		f.free = make(map[int][][]T)
	}
	if s := f.free[n]; len(s) < maxPerLen {
		f.free[n] = append(s, buf[:n])
	}
	f.mu.Unlock()
}

// Arena is one set of freelists. The zero value is ready to use; all
// methods are safe for concurrent use by any number of rank and worker
// goroutines.
type Arena struct {
	c128 freelist[complex128]
	f64  freelist[float64]
	c64  freelist[complex64]
}

// GetComplex checks out a []complex128 of length n (uninitialized).
func (a *Arena) GetComplex(n int) []complex128 { return a.c128.get(n) }

// PutComplex recycles a buffer obtained from GetComplex.
func (a *Arena) PutComplex(buf []complex128) { a.c128.put(buf) }

// GetFloat checks out a []float64 of length n (uninitialized).
func (a *Arena) GetFloat(n int) []float64 { return a.f64.get(n) }

// PutFloat recycles a buffer obtained from GetFloat.
func (a *Arena) PutFloat(buf []float64) { a.f64.put(buf) }

// GetComplex64 checks out a []complex64 of length n (uninitialized) —
// the single-precision wire-staging element type.
func (a *Arena) GetComplex64(n int) []complex64 { return a.c64.get(n) }

// PutComplex64 recycles a buffer obtained from GetComplex64.
func (a *Arena) PutComplex64(buf []complex64) { a.c64.put(buf) }

// def is the process-wide arena every engine shares; in-process MPI
// ranks are goroutines, so one arena serves all of them and a buffer
// released by one rank can be reused by another.
var def Arena

// GetComplex checks a []complex128 of length n out of the default arena.
func GetComplex(n int) []complex128 { return def.GetComplex(n) }

// PutComplex recycles buf into the default arena.
func PutComplex(buf []complex128) { def.PutComplex(buf) }

// GetFloat checks a []float64 of length n out of the default arena.
func GetFloat(n int) []float64 { return def.GetFloat(n) }

// PutFloat recycles buf into the default arena.
func PutFloat(buf []float64) { def.PutFloat(buf) }

// GetComplex64 checks a []complex64 of length n out of the default arena.
func GetComplex64(n int) []complex64 { return def.GetComplex64(n) }

// PutComplex64 recycles buf into the default arena.
func PutComplex64(buf []complex64) { def.PutComplex64(buf) }

// PublishMetrics copies the package totals into reg as the pool.hit,
// pool.miss and pool.put counters. Repeated calls overwrite, so the
// published values stay cumulative (same convention as
// fft.PublishMetrics).
func PublishMetrics(reg *metrics.Registry) {
	reg.Counter("pool.hit").Store(hits.Load())
	reg.Counter("pool.miss").Store(misses.Load())
	reg.Counter("pool.put").Store(puts.Load())
}
