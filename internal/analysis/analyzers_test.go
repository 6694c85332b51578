package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.HotAlloc, "hotalloc")
}

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.LockOrder, "lockorder/mpi")
}

func TestMetricName(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.MetricName, "metricname")
}

// TestSuppressEdgeCases drives the directive edge cases through a
// real analyzer: multi-line statement coverage, unknown analyzer
// names, and reason-less directives.
func TestSuppressEdgeCases(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), analysis.HotAlloc, "suppress")
}
