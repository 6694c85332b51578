package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/metrics"
)

// chromeEvent is one entry of the Chrome tracing "traceEvents" format
// (load in chrome://tracing or Perfetto), the modern substitute for
// the NVIDIA visual profiler timelines of §5.2.
type chromeEvent struct {
	Name  string             `json:"name"`
	Cat   string             `json:"cat"`
	Phase string             `json:"ph"`
	TS    float64            `json:"ts"`  // microseconds
	Dur   float64            `json:"dur"` // microseconds
	PID   int                `json:"pid"`
	TID   int                `json:"tid"`
	Args  map[string]float64 `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	Metadata        map[string]string `json:"otherData,omitempty"`
}

// WriteChromeTrace serializes one or more timelines as a Chrome
// tracing JSON file: each timeline becomes a process, each resource a
// thread, each span a complete ("X") event.
func WriteChromeTrace(w io.Writer, tls []Timeline) error {
	return writeChrome(w, buildChromeFile(tls))
}

// WriteChromeTraceWithMetrics serializes timelines plus a runtime
// metrics snapshot in one file: counters and gauges become Chrome
// counter ("C") events on a dedicated "metrics" process so they render
// as tracks alongside the spans, and histogram summaries land in the
// otherData metadata block.
func WriteChromeTraceWithMetrics(w io.Writer, tls []Timeline, snap metrics.Snapshot) error {
	f := buildChromeFile(tls)
	pid := len(tls)
	for _, e := range snap.Entries {
		name := e.Name
		if e.Rank != metrics.NoRank {
			name = fmt.Sprintf("%s{rank=%d}", e.Name, e.Rank)
		}
		switch e.Kind {
		case metrics.KindHistogram:
			f.Metadata["metric."+name] = fmt.Sprintf(
				"count=%d sum=%g mean=%g p50=%g p95=%g p99=%g max=%g",
				e.Count, e.Value, e.Mean, e.P50, e.P95, e.P99, e.Max)
		default:
			f.TraceEvents = append(f.TraceEvents, chromeEvent{
				Name:  name,
				Cat:   "metric",
				Phase: "C",
				PID:   pid,
				Args:  map[string]float64{"value": e.Value},
			})
		}
	}
	return writeChrome(w, f)
}

func writeChrome(w io.Writer, f *chromeFile) error {
	sort.SliceStable(f.TraceEvents, func(i, j int) bool { return f.TraceEvents[i].TS < f.TraceEvents[j].TS })
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

func buildChromeFile(tls []Timeline) *chromeFile {
	f := &chromeFile{}
	f.DisplayTimeUnit = "ms"
	f.Metadata = map[string]string{"source": "psdns-async discrete-event model"}
	for pid, tl := range tls {
		// Stable thread ids per resource, in first-appearance order.
		tids := map[string]int{}
		for _, s := range tl.Spans {
			if _, ok := tids[s.Resource]; !ok {
				tids[s.Resource] = len(tids)
			}
		}
		// Metadata events naming the process and threads.
		for _, s := range tl.Spans {
			f.TraceEvents = append(f.TraceEvents, chromeEvent{
				Name:  s.Name,
				Cat:   s.Class,
				Phase: "X",
				TS:    s.Start * 1e6,
				Dur:   (s.End - s.Start) * 1e6,
				PID:   pid,
				TID:   tids[s.Resource],
			})
		}
		_ = tl.Title
	}
	return f
}
