package fft

import (
	"sync/atomic"

	"repro/internal/metrics"
)

// Package-level instrumentation. The fft package sits under every
// layer of the stack and its plans are owned by individual worker
// goroutines, so rather than threading a registry into each plan, hot
// counts accumulate into package atomics and PublishMetrics copies the
// totals into a registry at reporting time. Every rank adds to the same
// cache line, and a contended atomic add is not noise next to a 0.3 µs
// line transform: batches add their whole line count once per
// execution, never once per line.
var (
	plansCreated   atomic.Int64 // NewPlan calls (complex twiddle/factorization setup)
	transforms     atomic.Int64 // complex plan executions (Forward+Inverse)
	realTransforms atomic.Int64 // real-to-complex / complex-to-real executions
	cacheHits      atomic.Int64 // BatchCache lookups served from the cache
	cacheMisses    atomic.Int64 // BatchCache lookups that built a new plan
)

// PublishMetrics copies the package-level totals into reg as plain
// counters. Call it once per reporting interval (e.g. before taking a
// snapshot); repeated calls overwrite, so totals stay cumulative.
func PublishMetrics(reg *metrics.Registry) {
	reg.Counter("fft.plans.created").Store(plansCreated.Load())
	reg.Counter("fft.transforms").Store(transforms.Load())
	reg.Counter("fft.real.transforms").Store(realTransforms.Load())
	reg.Counter("fft.plancache.hits").Store(cacheHits.Load())
	reg.Counter("fft.plancache.misses").Store(cacheMisses.Load())
	reg.Counter("fft.twiddle.hits").Store(twiddleHits.Load())
	reg.Counter("fft.twiddle.misses").Store(twiddleMisses.Load())
}

// batchKey identifies one advanced-layout batch configuration; for
// real batches the stride fields carry (rstride, rdist, cstride,
// cdist) and kb the band (0 for complex batches).
type batchKey struct {
	n, howmany, kb int
	istride, idist int
	ostride, odist int
}

// BatchCache memoizes batched plans by their full layout, replacing
// the ad-hoc per-width plan maps that pipeline code otherwise keeps by
// hand. Like a Plan, a cache is owned by one goroutine at a time (the
// cached plans carry scratch), so it is deliberately not
// concurrency-safe: allocate one per worker. Hits and misses feed
// fft.plancache.* so plan-reuse efficiency is observable.
type BatchCache struct {
	batches map[batchKey]*Batch
	reals   map[batchKey]*RealBatch
}

// NewBatchCache creates an empty plan cache.
func NewBatchCache() *BatchCache {
	return &BatchCache{
		batches: map[batchKey]*Batch{},
		reals:   map[batchKey]*RealBatch{},
	}
}

// Batch returns the cached batch plan for the given layout, creating
// it on first use.
func (bc *BatchCache) Batch(n, howmany, istride, idist, ostride, odist int) *Batch {
	k := batchKey{n, howmany, 0, istride, idist, ostride, odist}
	if b := bc.batches[k]; b != nil {
		cacheHits.Add(1)
		return b
	}
	cacheMisses.Add(1)
	b := NewBatch(n, howmany, istride, idist, ostride, odist)
	bc.batches[k] = b
	return b
}

// ContiguousBatch returns the cached batch of howmany back-to-back
// unit-stride length-n transforms.
func (bc *BatchCache) ContiguousBatch(n, howmany int) *Batch {
	return bc.Batch(n, howmany, 1, n, 1, n)
}

// RealBatch returns the cached real batch plan for the given layout and
// band kb (see NewBandRealBatch), creating it on first use.
func (bc *BatchCache) RealBatch(n, kb, howmany, rstride, rdist, cstride, cdist int) *RealBatch {
	k := batchKey{n, howmany, kb, rstride, rdist, cstride, cdist}
	if b := bc.reals[k]; b != nil {
		cacheHits.Add(1)
		return b
	}
	cacheMisses.Add(1)
	b := NewBandRealBatch(n, kb, howmany, rstride, rdist, cstride, cdist)
	bc.reals[k] = b
	return b
}

// Release returns every cached plan's scratch to the buffer arena and
// empties the cache. The cache itself remains usable (plans rebuild on
// next lookup).
func (bc *BatchCache) Release() {
	for k, b := range bc.batches {
		b.Release()
		delete(bc.batches, k)
	}
	for k, b := range bc.reals {
		b.Release()
		delete(bc.reals, k)
	}
}
