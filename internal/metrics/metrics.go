// Package metrics is the always-on instrumentation substrate of the
// runtime: a low-overhead, concurrency-safe registry of counters,
// gauges and histograms that the hot layers (mpi collectives, cuda
// streams, fft plans, the transform pipelines, the solver) record
// into. It is the measurement layer behind the paper's evaluation —
// per-phase step breakdowns (Fig 10's span classes), all-to-all byte
// and wait accounting (Table 2), and the max-over-ranks timing
// reduction the paper uses for Table 3 ("timings per step were
// obtained by taking the maximum over all MPI ranks", §5).
//
// Design rules, in order:
//
//  1. Disabled must be nearly free. Every handle is nil-safe and gated
//     on its registry's atomic on/off flag, so an instrumented hot path
//     costs one atomic load when metrics are off.
//  2. Recording must be cheap. Counters and gauges are single atomic
//     operations; histograms take one short mutex.
//  3. Metrics are identified by (name, rank): in-process MPI ranks are
//     goroutines sharing one registry, so per-rank attribution is a
//     label, and Snapshot.MaxOverRanks applies the paper's reduction.
//
// The package depends only on the standard library so every layer,
// including internal/mpi itself, can import it.
package metrics

import (
	"sync"
	"sync/atomic"
)

// NoRank labels a metric that is not attributed to a single MPI rank.
const NoRank = -1

// key identifies one metric instance inside a registry.
type key struct {
	name string
	rank int
}

// Registry owns a set of named metrics. All methods are safe for
// concurrent use from any number of goroutines (ranks), and all are
// nil-safe: a nil *Registry hands out nil handles whose operations are
// no-ops, so instrumented code never branches on "metrics configured?".
type Registry struct {
	on       atomic.Bool
	mu       sync.RWMutex
	counters map[key]*Counter
	gauges   map[key]*Gauge
	hists    map[key]*Histogram
}

// NewRegistry creates an enabled, empty registry.
func NewRegistry() *Registry {
	r := &Registry{
		counters: map[key]*Counter{},
		gauges:   map[key]*Gauge{},
		hists:    map[key]*Histogram{},
	}
	r.on.Store(true)
	return r
}

// SetOn enables or disables recording. Handles stay valid either way;
// they simply drop observations while the registry is off.
func (r *Registry) SetOn(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

// Counter returns the rank-unlabelled counter with the given name,
// creating it on first use.
func (r *Registry) Counter(name string) *Counter { return r.CounterRank(name, NoRank) }

// CounterRank returns the counter (name, rank), creating it on first use.
func (r *Registry) CounterRank(name string, rank int) *Counter {
	if r == nil {
		return nil
	}
	k := key{name, rank}
	r.mu.RLock()
	c := r.counters[k]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[k]; c == nil {
		c = &Counter{reg: r}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the rank-unlabelled gauge with the given name.
func (r *Registry) Gauge(name string) *Gauge { return r.GaugeRank(name, NoRank) }

// GaugeRank returns the gauge (name, rank), creating it on first use.
func (r *Registry) GaugeRank(name string, rank int) *Gauge {
	if r == nil {
		return nil
	}
	k := key{name, rank}
	r.mu.RLock()
	g := r.gauges[k]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[k]; g == nil {
		g = &Gauge{reg: r}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the rank-unlabelled histogram with the given name.
func (r *Registry) Histogram(name string) *Histogram { return r.HistogramRank(name, NoRank) }

// HistogramRank returns the histogram (name, rank), creating it on
// first use.
func (r *Registry) HistogramRank(name string, rank int) *Histogram {
	if r == nil {
		return nil
	}
	k := key{name, rank}
	r.mu.RLock()
	h := r.hists[k]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[k]; h == nil {
		h = &Histogram{reg: r}
		r.hists[k] = h
	}
	return h
}

// Counter is a monotonically increasing integer metric with an atomic
// fast path (bytes moved, messages sent, transforms executed).
type Counter struct {
	reg *Registry
	v   atomic.Int64
}

// Add increments the counter by n (no-op on nil or disabled registry).
func (c *Counter) Add(n int64) {
	if c == nil || !c.reg.on.Load() {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Store overwrites the counter value; used to publish externally
// accumulated totals (e.g. package-level atomics in internal/fft) at
// reporting time. Unlike Add, Store works even while the registry is
// disabled: publishing happens after recording has been switched off.
func (c *Counter) Store(v int64) {
	if c == nil {
		return
	}
	c.v.Store(v)
}

// Value reads the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 metric (occupancy, queue depth).
type Gauge struct {
	reg  *Registry
	bits atomic.Uint64
}

// Set stores v (no-op on nil or disabled registry).
func (g *Gauge) Set(v float64) {
	if g == nil || !g.reg.on.Load() {
		return
	}
	g.bits.Store(floatBits(v))
}

// Value reads the current gauge value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return floatFrom(g.bits.Load())
}

// --- Default registry ---------------------------------------------------

// def is the process-wide registry. It always exists so handles can be
// created at construction time anywhere in the stack; it starts
// disabled so un-instrumented runs pay only gated no-ops.
var def = func() *Registry {
	r := NewRegistry()
	r.on.Store(false)
	return r
}()

// Default returns the process-wide registry (never nil; recording only
// after Enable).
func Default() *Registry { return def }

// Enable turns on the process-wide registry and returns it.
func Enable() *Registry {
	def.SetOn(true)
	return def
}

// Disable stops recording into the process-wide registry.
func Disable() { def.SetOn(false) }
