package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// printBlock echoes the configuration a block resolved and what it
// measured, one line per block, as the block ends.
func printBlock(round int, b *blockReport) {
	c := b.Config
	fmt.Printf("block r=%-2d %-18s %-7s %s GOMAXPROCS=%d workers=%d strategy=%s %s nproc=%d %s | setup %.3fs heap %.1fMB steps %d p10 %.2fms fail %d\n",
		round, b.Workload, b.Mode, c.Geometry, c.GOMAXPROCS, c.Workers, c.Strategy, c.GoVersion, c.NumCPU, c.Fingerprint,
		b.SetupS, b.HeapLiveMB, len(b.StepMS), percentile(b.StepMS, 10), b.Failed)
	for _, e := range b.Errors {
		fmt.Printf("  FAILED: %s\n", e)
	}
	if b.TraceFile != "" {
		fmt.Printf("  chrome trace: %s\n", b.TraceFile)
	}
}

func printSuite(w io.Writer, results []*workloadResult, cfg suiteConfig) {
	fmt.Fprintf(w, "\nend-to-end (seed %d, %d rounds, untraced blocks only)\n", cfg.seed, cfg.rounds)
	fmt.Fprintf(w, "%-20s %-14s %14s %-6s %8s\n", "workload", "metric", "value", "unit", "samples")
	for _, r := range results {
		for _, m := range endToEnd {
			n := len(r.plain)
			if m.Name == "step_ms_p10" {
				n = int(r.layers["run.samples"])
			}
			fmt.Fprintf(w, "%-20s %-14s %14.6g %-6s %8d\n", r.w.name, m.Name, r.e2e[m.Name], m.Unit, n)
		}
		fmt.Fprintf(w, "%-20s steps attempted %d, failed %d; round spread %.3f\n", r.w.name, r.attempted, r.failed, r.layers["run.round_spread"])
		for _, e := range r.errors {
			fmt.Fprintf(w, "%-20s FAILED: %s\n", r.w.name, e)
		}
	}

	fmt.Fprintf(w, "\nper-layer")
	if !cfg.trace {
		fmt.Fprintf(w, " (harness rows only; -trace 1 fills the rest)")
	}
	fmt.Fprintf(w, "\n%-34s %-8s", "metric", "unit")
	for _, r := range results {
		fmt.Fprintf(w, " %18s", r.w.name)
	}
	fmt.Fprintln(w)
	for _, m := range perLayer {
		if _, ok := results[0].layers[m.Name]; !ok {
			continue
		}
		fmt.Fprintf(w, "%-34s %-8s", m.Name, m.Unit)
		for _, r := range results {
			fmt.Fprintf(w, " %18.6g", r.layers[m.Name])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// worse is how much b is worse than a, as a share of a, in the
// direction the metric counts as worse.
func worse(m metricDef, a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// printAA compares consecutive suite runs of the same code: for every
// workload and end-to-end metric both values, how much the worse one
// loses to the better one, and the bound. It reports whether every pair
// stayed within its bound.
func printAA(w io.Writer, runs [][]*workloadResult) bool {
	ok := true
	fmt.Fprintf(w, "A-A self-check: the same code, %d runs\n", len(runs))
	fmt.Fprintf(w, "%-20s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "run k", "run k+1", "rel diff", "bound", "round spreads")
	for k := 0; k+1 < len(runs); k++ {
		for i, a := range runs[k] {
			b := runs[k+1][i]
			for _, m := range endToEnd {
				va, vb := a.e2e[m.Name], b.e2e[m.Name]
				d := math.Max(worse(m, va, vb), worse(m, vb, va))
				verdict := "ok"
				if !(d <= m.Bound) {
					verdict, ok = "EXCEEDS BOUND", false
				}
				fmt.Fprintf(w, "%-20s %-14s %14.6g %14.6g %8.2f%% %6.0f%%  %.3f %.3f  %s\n", a.w.name, m.Name, va, vb, 100*d, 100*m.Bound,
					a.layers["run.round_spread"], b.layers["run.round_spread"], verdict)
			}
		}
	}
	return ok
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printContract writes the last line of standard output: one JSON
// object with exactly the keys correct, attempted, failed and metrics.
// One workload gives bare metric names; several prefix them with the
// workload's name.
func printContract(w io.Writer, results []*workloadResult, trace, ok bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := struct {
		Correct   bool                     `json:"correct"`
		Attempted int                      `json:"attempted"`
		Failed    int                      `json:"failed"`
		Metrics   map[string]contractValue `json:"metrics"`
	}{Correct: ok, Metrics: map[string]contractValue{}}
	for _, r := range results {
		out.Attempted += r.attempted
		out.Failed += r.failed
		prefix := ""
		if len(results) > 1 {
			prefix = r.w.name + "/"
		}
		for _, m := range defs {
			v := r.layers[m.Name]
			if !trace {
				v = r.e2e[m.Name]
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			out.Metrics[prefix+m.Name] = contractValue{Value: v, Unit: m.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: encode result: %v\n", err)
		os.Exit(2)
	}
	fmt.Fprintf(w, "%s\n", line)
}
