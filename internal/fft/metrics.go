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
)

// PublishMetrics copies the package-level totals into reg as plain
// counters. Call it once per reporting interval (e.g. before taking a
// snapshot); repeated calls overwrite, so totals stay cumulative.
func PublishMetrics(reg *metrics.Registry) {
	reg.Counter("fft.plans.created").Store(plansCreated.Load())
	reg.Counter("fft.transforms").Store(transforms.Load())
	reg.Counter("fft.real.transforms").Store(realTransforms.Load())
	reg.Counter("fft.twiddle.hits").Store(twiddleHits.Load())
	reg.Counter("fft.twiddle.misses").Store(twiddleMisses.Load())
}
