package main

import (
	"fmt"
	"math"
)

const (
	// rounds is R: every workload runs once per round, so its samples
	// are spread over the whole run and a noisy-neighbour episode taints
	// a slice of every workload instead of all of one.
	rounds      = 10
	smokeRounds = 2
	smokeSteps  = 3
	// minPool is the smallest pool a percentile is read from: at least
	// 12 samples below the 10th percentile.
	minPool = 120
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 12
	tracedRounds   = 2
)

type suiteConfig struct {
	workloads []*workload
	seed      int64
	seconds   int
	trace     bool
	smoke     bool
	workDir   string
	rounds    int
}

// steps is B, the timed steps of one block: -seconds of the workload's
// pinned nominal step cost spread over the rounds, and never fewer than
// fills the minimum pool. It depends on nothing measured, so it is the
// same on every commit.
func (cfg suiteConfig) steps(w *workload) int {
	if cfg.smoke {
		return smokeSteps
	}
	b := int(math.Round(float64(cfg.seconds) * 1e3 / (float64(cfg.rounds) * w.stepMS)))
	return max(b, (minPool+cfg.rounds-1)/cfg.rounds)
}

// workloadResult is everything one suite run learned about a workload.
type workloadResult struct {
	w       *workload
	plain   []*blockReport
	metrics []*blockReport
	traced  []*blockReport

	attempted, failed int
	errors            []string

	e2e    map[string]float64
	layers map[string]float64
}

func (r *workloadResult) blocks() []*blockReport {
	return append(append(append([]*blockReport(nil), r.plain...), r.metrics...), r.traced...)
}

func runSuite(cfg suiteConfig, run func(blockSpec) *blockReport) []*workloadResult {
	results := make([]*workloadResult, len(cfg.workloads))
	for i, w := range cfg.workloads {
		results[i] = &workloadResult{w: w}
	}
	spec := func(w *workload, mode blockMode) blockSpec {
		return blockSpec{Workload: w.name, Seed: cfg.seed, Steps: cfg.steps(w), Mode: mode, WorkDir: cfg.workDir, Smoke: cfg.smoke}
	}
	for r := 0; r < cfg.rounds; r++ {
		for _, res := range results {
			rep := run(spec(res.w, modePlain))
			printBlock(r, rep)
			res.plain = append(res.plain, rep)
		}
	}
	if cfg.trace {
		for _, res := range results {
			rep := run(spec(res.w, modeMetrics))
			printBlock(cfg.rounds, rep)
			res.metrics = append(res.metrics, rep)
		}
		for t := 0; t < tracedRounds; t++ {
			for _, res := range results {
				s := spec(res.w, modeTraced)
				s.Probes = t == tracedRounds-1
				rep := run(s)
				printBlock(cfg.rounds+1+t, rep)
				res.traced = append(res.traced, rep)
			}
		}
	}
	for _, res := range results {
		res.aggregate(cfg)
	}
	crossEngine(cfg, results, run)
	return results
}

// aggregate pools the blocks of one workload into its metrics.
func (r *workloadResult) aggregate(cfg suiteConfig) {
	g := r.w.geometry(cfg.smoke)
	seen := map[string]bool{}
	for _, b := range r.blocks() {
		r.attempted += b.Attempted
		r.failed += b.Failed
		for _, e := range b.Errors {
			if !seen[e] { // ten blocks failing one check is one finding
				seen[e] = true
				r.errors = append(r.errors, e)
			}
		}
	}

	samples, factor := pool(r.plain)
	var setups, heaps, blockP10 []float64
	var gcs int
	var mallocs int64
	for _, b := range r.plain {
		setups = append(setups, b.SetupS)
		heaps = append(heaps, b.HeapLiveMB)
		if len(b.StepMS) > 0 {
			blockP10 = append(blockP10, percentile(b.StepMS, 10))
		}
		gcs += b.GCCycles
		mallocs += b.Mallocs
	}
	p10 := percentile(samples, 10)
	r.e2e = map[string]float64{
		"step_ms_p10":  p10 / factor,
		"setup_s":      median(setups),
		"heap_live_mb": maxOf(heaps),
	}

	r.layers = map[string]float64{
		"run.samples":         float64(len(samples)),
		"run.machine_factor":  factor,
		"run.step_ms_p10_raw": p10,
		"run.step_ms_p50":     percentile(samples, 50),
		"run.step_ms_p90":     percentile(samples, 90),
		"run.mcells_per_s":    g.cells() / (mean(samples) * 1e-3) / 1e6,
		"run.round_spread":    (maxOf(blockP10) - minOf(blockP10)) / p10,
		"run.gc_cycles":       float64(gcs),
		"run.allocs_per_step": float64(mallocs) / float64(len(samples)),
	}
	if len(r.traced) == 0 {
		return
	}
	// Overheads compare pools that each carry their own machine factor.
	quiet := func(blocks []*blockReport) float64 {
		s, f := pool(blocks)
		return percentile(s, 10) / f
	}
	r.layers["run.trace_overhead_frac"] = quiet(r.traced)/quiet(r.plain) - 1
	r.layers["metrics.on_overhead_frac"] = quiet(r.metrics)/quiet(r.plain) - 1
	// Layer values are per-block means; probe values come from the one
	// block that ran the probes.
	sum, n := map[string]float64{}, map[string]int{}
	for _, b := range r.traced {
		for k, v := range b.Layers {
			sum[k] += v
			n[k]++
		}
	}
	for k, v := range sum {
		r.layers[k] = v / float64(n[k])
	}
	// A metric that does not apply to this workload reads 0.
	for _, m := range perLayer {
		if _, ok := r.layers[m.Name]; !ok {
			r.layers[m.Name] = 0
		}
	}
}

// pool gathers the step samples of some blocks and the machine factor
// of the time they were taken in: the low decile of the calibration
// samples that followed them, against the quiet reference box.
func pool(blocks []*blockReport) (samples []float64, factor float64) {
	var cals []float64
	for _, b := range blocks {
		samples = append(samples, b.StepMS...)
		cals = append(cals, b.CalMS...)
	}
	return samples, percentile(cals, 10) / calRefMS
}

// crossEngine requires the two Navier–Stokes engines to agree on the
// energy after the warm-up steps, for whatever seed the run used, and
// fills core.over_slab. When the slab workload is not part of the run
// it runs one slab block as the reference.
func crossEngine(cfg suiteConfig, results []*workloadResult, run func(blockSpec) *blockReport) {
	var async, slab *workloadResult
	for _, r := range results {
		switch r.w.name {
		case "ns_async_n64":
			async = r
		case "ns_slab_n64":
			slab = r
		}
	}
	if async == nil || len(async.plain) == 0 {
		return
	}
	var ref *blockReport
	slabXform := math.NaN()
	switch {
	case slab != nil:
		ref = slab.plain[0]
		slabXform = slab.layers["pfft.ms_per_step"]
	default:
		w := findWorkload("ns_slab_n64")
		s := blockSpec{Workload: w.name, Seed: cfg.seed, Mode: modePlain, WorkDir: cfg.workDir, Smoke: cfg.smoke}
		if cfg.trace {
			s.Mode, s.Steps = modeTraced, cfg.steps(w)
		}
		ref = run(s)
		printBlock(-1, ref)
		slabXform = ref.Layers["pfft.ms_per_step"]
	}
	if cfg.trace {
		async.layers["core.over_slab"] = async.layers["core.ms_per_step"] / slabXform
	}
	got, want := async.plain[0].WarmInvariant, ref.WarmInvariant
	if d := relDiff(got, want); !(d <= 1e-12) || len(ref.Errors) > 0 {
		async.errors = append(async.errors, fmt.Sprintf(
			"engines disagree after %d steps: async E=%.17g, slab E=%.17g (rel %g; reference errors %v)",
			warmupSteps, got, want, d, ref.Errors))
		async.failed = async.attempted
	}
}

func suiteCorrect(results []*workloadResult) bool {
	for _, r := range results {
		if r.failed > 0 || len(r.errors) > 0 || r.attempted == 0 {
			return false
		}
	}
	return true
}
