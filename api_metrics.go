package repro

import (
	"io"

	"repro/internal/fft"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/par"
	"repro/internal/pool"
	"repro/internal/trace"
)

// --- Runtime metrics -------------------------------------------------------

// MetricsRegistry is a concurrency-safe registry of counters, gauges
// and histograms that the runtime layers (collectives, device streams,
// FFT plans, transform pipelines, the solver) record into.
type MetricsRegistry = metrics.Registry

// MetricsSnapshot is a point-in-time copy of a registry's metrics.
type MetricsSnapshot = metrics.Snapshot

// MetricEntry is one metric inside a snapshot.
type MetricEntry = metrics.Entry

// NoRank labels a metric not attributed to a single MPI rank.
const NoRank = metrics.NoRank

// NewMetricsRegistry creates an enabled, empty registry for callers
// who want instrumentation isolated from the process-wide default.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// DefaultMetrics returns the process-wide registry that Run/TryRun
// install on every world. It starts disabled; call EnableMetrics to
// begin recording.
func DefaultMetrics() *MetricsRegistry { return metrics.Default() }

// EnableMetrics turns on the process-wide registry and returns it.
func EnableMetrics() *MetricsRegistry { return metrics.Enable() }

// DisableMetrics stops recording into the process-wide registry.
func DisableMetrics() { metrics.Disable() }

// RunWithMetrics is Run with an explicit registry for the world and an
// error contract (panics surface as *RankError, stalls as
// *StallError).
func RunWithMetrics(p int, reg *MetricsRegistry, fn func(*Comm), opts ...RunOption) error {
	return mpi.RunWith(p, reg, fn, opts...)
}

// MetricsSnapshotNow publishes the FFT-layer, buffer-arena and
// worker-team totals (fft.*, pool.hit/miss/put, par.workers.*) into the
// default registry and returns its snapshot — the one-call way to read
// everything the runtime has recorded.
func MetricsSnapshotNow() MetricsSnapshot {
	fft.PublishMetrics(metrics.Default())
	pool.PublishMetrics(metrics.Default())
	par.PublishMetrics(metrics.Default())
	return metrics.Default().Snapshot()
}

// WriteChromeTraceWithMetrics writes timelines plus a metrics snapshot
// as one Chrome-tracing JSON file (chrome://tracing, Perfetto).
func WriteChromeTraceWithMetrics(w io.Writer, tls []Timeline, snap MetricsSnapshot) error {
	return trace.WriteChromeTraceWithMetrics(w, tls, snap)
}
