package main

import (
	"math"

	"repro"
)

// Per-layer metrics of one traced (or metrics-only) block. Two sources
// feed them, both read from outside the program:
//
//   - the benchmark's own spans on rank 0 (step and transform-call
//     boundaries), which give the spectral/pfft/core rows;
//   - the difference between two snapshots of the program's public
//     metrics registry taken around the timed steps, which gives what
//     happens below the transform boundary (fft, exchange, gather,
//     stream and pool activity).
//
// Times are rank 0's — the rank whose clock the samples are taken on —
// except where a registry label is a sub-communicator rank, where the
// mean over ranks is used. Counts (calls, bytes, lines) are summed over
// all ranks and are exact.

// regDelta reads differences between two registry snapshots.
type regDelta struct {
	before, after repro.MetricsSnapshot
}

// rank returns the growth of metric name on one rank label: the sum of
// observations for a histogram, the value for a counter.
func (d regDelta) rank(name string, rank int) (sum float64, count int64) {
	a, _ := d.after.Get(name, rank)
	b, _ := d.before.Get(name, rank)
	return a.Value - b.Value, a.Count - b.Count
}

// total sums the growth of metric name over every rank label.
func (d regDelta) total(name string) (sum float64, count int64) {
	for _, e := range d.after.Entries {
		if e.Name != name {
			continue
		}
		b, _ := d.before.Get(name, e.Rank)
		sum += e.Value - b.Value
		count += e.Count - b.Count
	}
	return sum, count
}

// flops3D is the computed cost of one N³ real 3-D transform: 5·N·log₂N
// per complex line over the y and z passes on the half spectrum, half
// that per real line on the x pass.
func flops3D(n int) float64 {
	nf := float64(n)
	line := 5 * nf * math.Log2(nf)
	nxh := float64(n/2 + 1)
	return line*(2*nf*nxh) + line/2*(nf*nf)
}

func layerMetrics(out map[string]float64, g geometry, nsteps int, t spanTotals, lost int, d regDelta) {
	steps := float64(nsteps)
	perStepMS := func(seconds float64) float64 { return seconds * 1e3 / steps }

	// Registry side. phase.* histograms are in seconds.
	fftS, _ := d.rank("phase.fft", 0)
	a2aS, _ := d.rank("phase.a2a", 0)
	packS, _ := d.rank("phase.pack", 0)
	unpackS, _ := d.rank("phase.unpack", 0)
	pipeS, _ := d.rank("phase.pipeline", 0)
	gatherNS, _ := d.total("exchange.gather.ns")
	gatherS := gatherNS / 1e9 / float64(g.p)
	calls, _ := d.total("exchange.calls")
	bytes, _ := d.total("exchange.bytes")
	a2aBytes, _ := d.total("mpi.a2a.bytes")
	a2aCalls, _ := d.total("mpi.a2a.calls")
	lines, _ := d.total("fft.transforms")
	rlines, _ := d.total("fft.real.transforms")
	hits, _ := d.total("fft.plancache.hits")
	misses, _ := d.total("fft.plancache.misses")
	poolMiss, _ := d.total("pool.miss")
	busyS, _ := d.total("cuda.stream.busy")
	xfer, _ := d.total("cuda.xfer.bytes")
	ops, _ := d.total("cuda.stream.ops")
	evS, evN := d.total("cuda.event.latency")

	out["fft.ms_per_step"] = perStepMS(fftS)
	out["fft.lines_per_step"] = (lines + rlines) / steps
	out["fft.plancache_hit_frac"] = 1
	if hits+misses > 0 {
		out["fft.plancache_hit_frac"] = hits / (hits + misses)
	}
	// The exposed exchange: fused gathers and the batched engine's
	// all-to-alls both land in phase.a2a.
	out["mpi.exchange_ms_per_step"] = perStepMS(a2aS)
	out["mpi.exchange_calls_per_step"] = (calls + a2aCalls) / steps / float64(g.p) // per rank
	out["mpi.exchange_mb_per_step"] = (bytes + a2aBytes) / 1e6 / steps
	out["mpi.exchange_wait_ms_per_step"] = perStepMS(math.Max(0, a2aS-gatherS))
	// Copy work of the transpose: the gather pass inside a fused
	// exchange plus any staged pack/unpack.
	out["transpose.gather_ms_per_step"] = perStepMS(gatherS + packS + unpackS)
	out["core.pipeline_ms_per_step"] = perStepMS(pipeS)
	out["cuda.stream_busy_ms_per_step"] = perStepMS(busyS / float64(g.p))
	out["cuda.xfer_mb_per_step"] = xfer / 1e6 / steps
	out["cuda.stream_ops_per_step"] = ops / steps
	if evN > 0 {
		out["cuda.event_latency_us"] = evS / float64(evN) * 1e6
	}
	out["pool.miss_per_step"] = poolMiss / steps

	// Span side, rank 0.
	rootS := float64(t.rootNS) / 1e9
	childS := float64(t.childNS) / 1e9
	out["run.spans_lost"] = float64(lost)
	// What the rows account for: the solver's own time plus the phases
	// the engines record under the transform calls.
	out["run.tiled_frac"] = (float64(t.selfNS)/1e9 + fftS + a2aS + packS + unpackS + pipeS) / rootS
	out["fft.frac"] = fftS / rootS
	out["mpi.exchange_frac"] = a2aS / rootS

	// The transform calls belong to whichever engine the workload runs.
	flop := flops3D(g.n) * float64(t.children)
	xf := t.layer
	if xf == "pfft" {
		out["pfft.gflops"] = flop / childS / 1e9
	}
	out[xf+".fwd_ms"] = percentile(t.fwdMS, 10)
	out[xf+".inv_ms"] = percentile(t.invMS, 10)
	out[xf+".ms_per_step"] = perStepMS(childS)
	out[xf+".frac"] = childS / rootS
	if fftS > 0 {
		out["fft.gflops"] = flop / fftS / 1e9
	}

	if g.pr > 0 {
		return // the transform-pair workload has no solver under its steps
	}
	out["spectral.step_ms"] = perStepMS(rootS)
	out["spectral.self_ms"] = perStepMS(float64(t.selfNS) / 1e9)
	out["spectral.self_frac"] = float64(t.selfNS) / float64(t.rootNS)
	out["spectral.xforms_per_step"] = float64(t.children) / float64(t.steps)
}
