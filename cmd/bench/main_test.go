package main

import "testing"

// TestHotpathGate pins the allocs/op gate for hotpath-marked
// workloads: allocation within the process-noise slack passes, real
// regressions fail, and workloads not marked hotpath are exempt
// however much they allocate.
func TestHotpathGate(t *testing.T) {
	ws := []workload{
		{name: "hot_clean", hotpath: true},
		{name: "hot_noisy", hotpath: true},
		{name: "hot_leaky", hotpath: true},
		{name: "cold_alloc", hotpath: false},
	}
	results := []Result{
		{Name: "hot_clean", AllocsPerOp: 0},
		{Name: "hot_noisy", AllocsPerOp: allocSlack}, // watchdog ticker noise
		{Name: "cold_alloc", AllocsPerOp: 4096},
	}
	if hotpathGate(results, ws) {
		t.Fatal("gate failed on allocation-free and noise-level hotpath workloads")
	}
	results = append(results, Result{Name: "hot_leaky", AllocsPerOp: allocSlack + 1})
	if !hotpathGate(results, ws) {
		t.Fatal("gate passed a hotpath workload allocating beyond the slack")
	}
}

// TestCompareGate pins the baseline comparison: within tolerance
// passes, ns/op and allocs/op regressions fail independently.
func TestCompareGate(t *testing.T) {
	base := map[string]Result{
		"w": {Name: "w", NsPerOp: 1000, AllocsPerOp: 0},
	}
	if compare([]Result{{Name: "w", NsPerOp: 1100, AllocsPerOp: allocSlack}}, base, 0.25) {
		t.Fatal("compare failed a run within tolerance and slack")
	}
	if !compare([]Result{{Name: "w", NsPerOp: 2000, AllocsPerOp: 0}}, base, 0.25) {
		t.Fatal("compare passed a 2x ns/op regression")
	}
	if !compare([]Result{{Name: "w", NsPerOp: 1000, AllocsPerOp: allocSlack + 1}}, base, 0.25) {
		t.Fatal("compare passed an allocs/op regression beyond the slack")
	}
}
