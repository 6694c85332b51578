package main

// The metric names every later issue uses. BENCHMARK.json at the
// repository root lists the same names, units and bounds; the smoke
// test fails when the two drift apart.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median a change may lose
}

// endToEnd are the gated numbers, one set per workload.
var endToEnd = []metricDef{
	// Pooled 10th percentile of the barrier-fenced step wall time over
	// all blocks, divided by the run's machine factor: the step time of
	// the quiet reference box.
	{Name: "step_ms_p10", Unit: "ms", Better: "lower", Bound: 0.10},
	// World launch until engine, solver and initial condition are ready,
	// median over the blocks. Not divided by the machine factor: set-up
	// is allocation and table building, and an episode slows it less
	// than it slows the calibration kernel.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	// Live heap after a forced collection at the end of set-up and
	// warm-up, max over the blocks.
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.02},
}

// perLayer are the traced run's numbers. A metric that does not apply
// to a workload (spectral.* on the transform pair, core.* on the sync
// engines) reads 0 there.
var perLayer = []metricDef{
	{Name: "run.samples", Unit: "count", Better: "higher"},
	{Name: "run.machine_factor", Unit: "ratio", Better: "lower"},
	{Name: "run.step_ms_p10_raw", Unit: "ms", Better: "lower"},
	{Name: "run.step_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "run.step_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "run.mcells_per_s", Unit: "Mcell/s", Better: "higher"},
	{Name: "run.round_spread", Unit: "frac", Better: "lower"},
	{Name: "run.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "run.allocs_per_step", Unit: "count", Better: "lower"},
	{Name: "run.trace_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "run.spans_lost", Unit: "count", Better: "lower"},
	{Name: "run.tiled_frac", Unit: "frac", Better: "higher"},

	{Name: "spectral.step_ms", Unit: "ms", Better: "lower"},
	{Name: "spectral.self_ms", Unit: "ms", Better: "lower"},
	{Name: "spectral.self_frac", Unit: "frac", Better: "lower"},
	{Name: "spectral.xforms_per_step", Unit: "count", Better: "lower"},
	{Name: "spectral.first_step_ms", Unit: "ms", Better: "lower"},
	{Name: "spectral.reduce_us", Unit: "us", Better: "lower"},
	{Name: "spectral.ckpt_write_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "spectral.ckpt_read_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "spectral.ckpt_mb", Unit: "MB", Better: "lower"},

	{Name: "pfft.fwd_ms", Unit: "ms", Better: "lower"},
	{Name: "pfft.inv_ms", Unit: "ms", Better: "lower"},
	{Name: "pfft.ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "pfft.frac", Unit: "frac", Better: "lower"},
	{Name: "pfft.gflops", Unit: "GFlop/s", Better: "higher"},

	{Name: "core.fwd_ms", Unit: "ms", Better: "lower"},
	{Name: "core.inv_ms", Unit: "ms", Better: "lower"},
	{Name: "core.ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "core.frac", Unit: "frac", Better: "lower"},
	{Name: "core.pipeline_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "core.over_slab", Unit: "ratio", Better: "lower"},

	{Name: "cuda.stream_busy_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "cuda.xfer_mb_per_step", Unit: "MB", Better: "lower"},
	{Name: "cuda.stream_ops_per_step", Unit: "count", Better: "lower"},
	{Name: "cuda.event_latency_us", Unit: "us", Better: "lower"},

	{Name: "fft.ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "fft.frac", Unit: "frac", Better: "lower"},
	{Name: "fft.lines_per_step", Unit: "count", Better: "lower"},
	{Name: "fft.c2c_ns_per_line", Unit: "ns", Better: "lower"},
	{Name: "fft.c2c_strided_ns_per_line", Unit: "ns", Better: "lower"},
	{Name: "fft.r2c_ns_per_line", Unit: "ns", Better: "lower"},
	{Name: "fft.gflops", Unit: "GFlop/s", Better: "higher"},
	{Name: "fft.plancache_hit_frac", Unit: "frac", Better: "higher"},

	{Name: "transpose.gather_yz_gb_s", Unit: "GB/s", Better: "higher"},
	{Name: "transpose.gather_zy_gb_s", Unit: "GB/s", Better: "higher"},
	{Name: "transpose.gather_frac_of_memcpy", Unit: "frac", Better: "higher"},
	{Name: "transpose.gather_ms_per_step", Unit: "ms", Better: "lower"},

	{Name: "mpi.exchange_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "mpi.exchange_frac", Unit: "frac", Better: "lower"},
	{Name: "mpi.exchange_calls_per_step", Unit: "count", Better: "lower"},
	{Name: "mpi.exchange_mb_per_step", Unit: "MB", Better: "lower"},
	{Name: "mpi.exchange_wait_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "mpi.exchange_empty_us", Unit: "us", Better: "lower"},
	{Name: "mpi.barrier_us", Unit: "us", Better: "lower"},

	{Name: "hw.memcpy_gb_s", Unit: "GB/s", Better: "higher"},
	{Name: "hw.strided_gb_s", Unit: "GB/s", Better: "higher"},

	{Name: "tuning.cold_build_s", Unit: "s", Better: "lower"},
	{Name: "tuning.warm_build_s", Unit: "s", Better: "lower"},
	{Name: "tuning.trials_cold", Unit: "count", Better: "lower"},
	{Name: "tuning.trials_warm", Unit: "count", Better: "lower"},

	{Name: "pool.miss_per_step", Unit: "count", Better: "lower"},
	{Name: "metrics.on_overhead_frac", Unit: "frac", Better: "lower"},
}
