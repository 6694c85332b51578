package metrics_test

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// TestConcurrentRecordAndSnapshot hammers one registry from many
// goroutines while snapshots are taken concurrently; run under -race
// this is the concurrency-safety contract of the registry.
func TestConcurrentRecordAndSnapshot(t *testing.T) {
	reg := metrics.NewRegistry()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			c := reg.CounterRank("test.counter", rank)
			shared := reg.Counter("test.shared")
			h := reg.HistogramRank("test.hist", rank)
			g := reg.GaugeRank("test.gauge", rank)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				shared.Add(2)
				h.Observe(float64(i))
				g.Set(float64(i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = reg.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	snap := reg.Snapshot()
	if e, ok := snap.Get("test.shared", metrics.NoRank); !ok || e.Value != 2*workers*perWorker {
		t.Fatalf("shared counter = %v, want %d", e.Value, 2*workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		if e, ok := snap.Get("test.counter", w); !ok || e.Value != perWorker {
			t.Fatalf("rank %d counter = %v, want %d", w, e.Value, perWorker)
		}
		if e, ok := snap.Get("test.hist", w); !ok || e.Count != perWorker {
			t.Fatalf("rank %d histogram count = %v, want %d", w, e.Count, perWorker)
		}
	}
}

// TestHistogramPercentilesAgainstStats pins the duplicated percentile
// interpolation to internal/stats.Percentile, the canonical
// implementation (metrics must stay a stdlib-only leaf, so the code is
// copied, not imported).
func TestHistogramPercentilesAgainstStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reg := metrics.NewRegistry()
	h := reg.Histogram("t")
	var xs []float64
	for i := 0; i < 500; i++ {
		x := rng.ExpFloat64()
		xs = append(xs, x)
		h.Observe(x)
	}
	st := h.Stat()
	for _, p := range []struct {
		got float64
		p   float64
	}{{st.P50, 50}, {st.P95, 95}, {st.P99, 99}} {
		want := stats.Percentile(xs, p.p)
		if math.Abs(p.got-want) > 1e-12 {
			t.Errorf("p%g = %v, want %v (stats.Percentile)", p.p, p.got, want)
		}
	}
	// Moments against direct computation.
	mean, m2 := 0.0, 0.0
	for i, x := range xs {
		d := x - mean
		mean += d / float64(i+1)
		m2 += d * (x - mean)
	}
	if math.Abs(st.Mean-mean) > 1e-12 {
		t.Errorf("mean = %v, want %v", st.Mean, mean)
	}
	std := math.Sqrt(m2 / float64(len(xs)-1))
	if math.Abs(st.Std-std) > 1e-12 {
		t.Errorf("std = %v, want %v", st.Std, std)
	}
}

func TestMaxOverRanks(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.CounterRank("bytes", 0).Add(10)
	reg.CounterRank("bytes", 1).Add(30)
	reg.CounterRank("bytes", 2).Add(20)
	reg.Counter("global").Add(5)
	snap := reg.Snapshot().MaxOverRanks()
	if len(snap.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(snap.Entries))
	}
	e, ok := snap.Get("bytes", metrics.NoRank)
	if !ok || e.Value != 30 {
		t.Fatalf("max bytes = %v, want 30", e.Value)
	}
	sum := reg.Snapshot().SumOverRanks()
	if e, ok := sum.Get("bytes", metrics.NoRank); !ok || e.Value != 60 {
		t.Fatalf("summed bytes = %v, want 60", e.Value)
	}
}

// TestNilAndDisabledSafety: every handle operation must be a no-op on
// nil receivers (nil registry) and drop observations while disabled.
func TestNilAndDisabledSafety(t *testing.T) {
	var nilReg *metrics.Registry
	nilReg.Counter("x").Inc()
	nilReg.Gauge("x").Set(1)
	nilReg.Histogram("x").Observe(1)
	nilReg.Histogram("x").Start()()
	if s := nilReg.Snapshot(); len(s.Entries) != 0 {
		t.Fatalf("nil snapshot has %d entries", len(s.Entries))
	}

	reg := metrics.NewRegistry()
	reg.SetOn(false)
	c := reg.Counter("c")
	c.Add(7)
	h := reg.Histogram("h")
	h.Observe(1)
	if h.Enabled() {
		t.Fatal("disabled histogram reports Enabled")
	}
	if c.Value() != 0 {
		t.Fatalf("disabled counter recorded %d", c.Value())
	}
	reg.SetOn(true)
	c.Add(7)
	h.Observe(1)
	if c.Value() != 7 || h.Stat().Count != 1 {
		t.Fatal("re-enabled handles did not record")
	}
}

func TestSnapshotText(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.CounterRank("a.bytes", 1).Add(42)
	reg.Histogram("a.time").Observe(0.5)
	txt := reg.Snapshot().Text()
	for _, want := range []string{"a.bytes{rank=1}", "a.time", "42"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Text() missing %q:\n%s", want, txt)
		}
	}
	var b strings.Builder
	if err := reg.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"name": "a.bytes"`) {
		t.Errorf("JSON missing entry:\n%s", b.String())
	}
}
