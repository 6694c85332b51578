package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// TestSmoke runs every workload and the traced mode on tiny grids,
// in-process, and checks the properties the benchmark's numbers rest
// on: names, completeness, span attribution, tiling and exact counts.
func TestSmoke(t *testing.T) {
	cfg := suiteConfig{
		workloads: workloads, seed: 1, seconds: defaultSeconds, trace: true,
		smoke: true, workDir: t.TempDir(), rounds: smokeRounds,
	}
	results := runSuite(cfg, runBlock)
	if !suiteCorrect(results) {
		for _, r := range results {
			t.Errorf("%s: attempted %d failed %d: %v", r.w.name, r.attempted, r.failed, r.errors)
		}
	}

	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) || len(m.Name) > 64 {
			t.Errorf("metric name %q is not a contract name", m.Name)
		}
	}

	for _, r := range results {
		for _, m := range endToEnd {
			if v, ok := r.e2e[m.Name]; !ok || !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v", r.w.name, m.Name, v)
			}
		}
		for _, m := range perLayer {
			if v, ok := r.layers[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v (present %v)", r.w.name, m.Name, v, ok)
			}
		}
		if len(r.traced) != tracedRounds {
			t.Fatalf("%s: %d traced blocks", r.w.name, len(r.traced))
		}
		for _, b := range r.traced {
			if d := math.Abs(b.SpanSelfMS-b.SpanRootMS) / b.SpanRootMS; !(d <= 0.01) {
				t.Errorf("%s: span self times sum to %.4f ms, root spans to %.4f ms", r.w.name, b.SpanSelfMS, b.SpanRootMS)
			}
			if b.Layers["run.spans_lost"] != 0 {
				t.Errorf("%s: span ring too small, %v spans lost", r.w.name, b.Layers["run.spans_lost"])
			}
			if f := b.Layers["run.tiled_frac"]; !(f >= 0.95 && f <= 1.02) {
				t.Errorf("%s: layer rows account for %.3f of the step", r.w.name, f)
			}
			if _, err := os.Stat(b.TraceFile); err != nil {
				t.Errorf("%s: chrome trace: %v", r.w.name, err)
			}
		}
		// Counts made by the program repeat exactly from block to block.
		for _, k := range []string{"spectral.xforms_per_step", "mpi.exchange_calls_per_step", "fft.lines_per_step"} {
			a, b := r.traced[0].Layers[k], r.traced[1].Layers[k]
			if a != b {
				t.Errorf("%s: %s differs between two traced blocks: %v vs %v", r.w.name, k, a, b)
			}
		}
	}

	// The dominance pattern the workloads were chosen for holds even on
	// the tiny grids where it is structural.
	for _, r := range results {
		coreOn := r.layers["core.ms_per_step"] > 0
		if coreOn != (r.w.name == "ns_async_n64") {
			t.Errorf("%s: core.ms_per_step = %v", r.w.name, r.layers["core.ms_per_step"])
		}
		if spectralOn := r.layers["spectral.step_ms"] > 0; spectralOn == (r.w.name == "xform_pencil_n128") {
			t.Errorf("%s: spectral.step_ms = %v", r.w.name, r.layers["spectral.step_ms"])
		}
	}

	for _, trace := range []bool{false, true} {
		var buf bytes.Buffer
		printContract(&buf, results[:1], trace, true)
		var got map[string]json.RawMessage
		if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
			t.Fatalf("contract line: %v", err)
		}
		if len(got) != 4 {
			t.Errorf("contract line has keys %v", got)
		}
		var metrics map[string]contractValue
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if trace {
			want = perLayer
		}
		if len(metrics) != len(want) {
			t.Errorf("trace=%v: %d metrics printed, %d declared", trace, len(metrics), len(want))
		}
	}
}

// TestManifest keeps BENCHMARK.json and the tables in this package the
// same list.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	if manifest.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default -seconds %d", manifest.RunSeconds, defaultSeconds)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the benchmark", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if manifest.Workloads[i].Name != w.name || manifest.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, benchmark %s", i, manifest.Workloads[i], w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in the manifest, %d in the benchmark", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: manifest %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", manifest.EndToEnd, endToEnd)
	same("per_layer", manifest.PerLayer, perLayer)
}
