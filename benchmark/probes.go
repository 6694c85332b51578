package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/fft"
	"repro/internal/mpi"
	"repro/internal/transpose"
)

// Micro-probes: each measures one layer alone, at the geometry of the
// workload whose traced block just ended, in the same process. They
// give the ceilings and fixed costs the step-level rows are read
// against. Every probe reports the best of several repetitions: the
// quantity is the layer's own cost, and interference only adds.

const probeReps = 7

// bestOf runs f reps times and returns the shortest wall time.
func bestOf(reps int, f func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

func runProbes(out map[string]float64, g geometry, spec blockSpec) error {
	fftProbe(out, g)
	transposeProbe(out, g)
	hwProbe(out, spec.Smoke)
	if err := mpiProbe(out, g); err != nil {
		return err
	}
	if mem := out["hw.memcpy_gb_s"]; mem > 0 {
		out["transpose.gather_frac_of_memcpy"] = (out["transpose.gather_yz_gb_s"] + out["transpose.gather_zy_gb_s"]) / 2 / mem
	}
	return tuningProbe(out, spec)
}

// fftProbe times the three 1-D kernels a transform is made of, on one
// rank's share of lines: contiguous complex lines, complex lines strided
// by nxh (the y pass on the half spectrum), and real lines.
func fftProbe(out map[string]float64, g geometry) {
	n, nxh := g.n, g.n/2+1
	planes := max(1, n/g.p)

	contig := fft.NewContiguousBatch(n, nxh)
	defer contig.Release()
	strided := fft.NewBatch(n, nxh, nxh, 1, nxh, 1)
	defer strided.Release()
	realB := fft.NewRealBatch(n, n, 1, n, 1, nxh)
	defer realB.Release()

	buf := make([]complex128, planes*n*nxh)
	for i := range buf {
		buf[i] = complex(float64(i%13), float64(i%7))
	}
	phys := make([]float64, n*n)
	spec := make([]complex128, n*nxh)
	for i := range phys {
		phys[i] = float64(i % 11)
	}

	lines := float64(planes * nxh)
	perLine := func(d time.Duration, lines float64) float64 { return float64(d.Nanoseconds()) / lines }
	out["fft.c2c_ns_per_line"] = perLine(bestOf(probeReps, func() {
		for p := 0; p < planes; p++ {
			plane := buf[p*n*nxh : (p+1)*n*nxh]
			contig.Forward(plane, plane)
		}
	}), lines)
	out["fft.c2c_strided_ns_per_line"] = perLine(bestOf(probeReps, func() {
		for p := 0; p < planes; p++ {
			plane := buf[p*n*nxh : (p+1)*n*nxh]
			strided.Forward(plane, plane)
		}
	}), lines)
	out["fft.r2c_ns_per_line"] = perLine(bestOf(probeReps, func() {
		for p := 0; p < planes; p++ {
			realB.Forward(spec, phys)
		}
	}), float64(planes*n))
}

// transposeProbe times the blocked slab gathers one rank performs in a
// y↔z exchange at the workload's N and P (the pencil workload is
// probed on the slab kernels at its own N and P: same copy pattern,
// same out-of-cache size). Bytes are computed: 16 per element copied.
func transposeProbe(out map[string]float64, g geometry) {
	nxh := g.n/2 + 1
	mz := g.n / g.p
	l := transpose.NewSlabLayout(nxh, g.n, mz, g.p)
	srcs := make([][]complex128, g.p)
	for s := range srcs {
		srcs[s] = make([]complex128, l.Total)
		for i := range srcs[s] {
			srcs[s][i] = complex(float64(s), float64(i%5))
		}
	}
	dst := make([]complex128, l.Total)
	gb := float64(l.Total) * 16 / 1e9
	yz := bestOf(probeReps, func() {
		transpose.GatherYZRangeBlocked(&l, dst, srcs, 0, 0, l.My, transpose.DefaultGatherTile)
	})
	zy := bestOf(probeReps, func() {
		transpose.GatherZYRangeBlocked(&l, dst, srcs, 0, 0, l.Mz, transpose.DefaultGatherTile)
	})
	out["transpose.gather_yz_gb_s"] = gb / yz.Seconds()
	out["transpose.gather_zy_gb_s"] = gb / zy.Seconds()
}

// llcBytes is the last-level cache size the kernel reports for cpu0
// (what lscpu prints), or 0 when it cannot be read.
func llcBytes() int64 {
	var best int64
	for i := 0; i < 8; i++ {
		raw, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	return best
}

// hwProbe measures the two memory ceilings of the paper's §4.2 in this
// run: a contiguous copy and a copy of 528-byte rows (one N=64 x-line)
// read at a large stride, on arrays of at least four times the
// last-level cache, capped at 512 MiB each.
func hwProbe(out map[string]float64, smoke bool) {
	const capBytes = 512 << 20
	llc := llcBytes()
	size := int64(capBytes)
	if llc > 0 && 4*llc < size {
		size = 4 * llc
	}
	if smoke {
		size = 8 << 20
	}
	elems := int(size / 16)
	const row = 33 // complex128 per contiguous run
	rows := elems / row
	elems = rows * row
	src := make([]complex128, elems)
	dst := make([]complex128, elems)
	for i := range src {
		src[i] = complex(float64(i), 0)
	}
	fmt.Fprintf(os.Stderr, "benchmark: hw probe arrays 2 x %d MiB, last-level cache %d MiB\n", size>>20, llc>>20)
	gb := float64(elems) * 16 / 1e9
	out["hw.memcpy_gb_s"] = gb / bestOf(3, func() { copy(dst, src) }).Seconds()
	// Source rows are visited with a stride of `cols` rows, destination
	// rows in order: the access pattern of a transpose gather.
	const cols = 64
	out["hw.strided_gb_s"] = gb / bestOf(3, func() {
		d := 0
		for c := 0; c < cols; c++ {
			for r := c; r < rows; r += cols {
				copy(dst[d:d+row], src[r*row:(r+1)*row])
				d += row
			}
		}
	}).Seconds()
}

// mpiProbe times the two fixed costs under every exchange at the
// workload's rank count: an ExchangePlan.Do whose gather does nothing,
// and a barrier.
func mpiProbe(out map[string]float64, g geometry) error {
	const calls = 2000
	var empty, barrier time.Duration
	err := repro.TryRun(g.p, func(c *repro.Comm) {
		plan := mpi.NewExchangePlan[complex128](c, g.p)
		defer plan.Free()
		slab := make([]complex128, g.p)
		nop := func([][]complex128) {}
		for i := 0; i < 100; i++ {
			plan.Do(slab, nop)
		}
		c.Barrier()
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			plan.Do(slab, nop)
		}
		d := time.Since(t0)
		c.Barrier()
		t0 = time.Now()
		for i := 0; i < calls; i++ {
			c.Barrier()
		}
		b := time.Since(t0)
		if c.Rank() == 0 {
			empty, barrier = d, b
		}
	})
	out["mpi.exchange_empty_us"] = float64(empty.Microseconds()) / calls
	out["mpi.barrier_us"] = float64(barrier.Microseconds()) / calls
	return err
}

// tuningProbe builds the autotuned slab transform twice against an
// empty cache directory: what -autotune users pay at set-up, cold and
// warm. It is the only place an Auto path runs, and it is outside every
// timed window and outside setup_s.
func tuningProbe(out map[string]float64, spec blockSpec) error {
	g := findWorkload("ns_slab_n64").geometry(spec.Smoke)
	dir := filepath.Join(spec.WorkDir, "tunecache")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	trials := func() float64 {
		var n float64
		for _, e := range repro.MetricsSnapshotNow().Entries {
			if e.Name == "tune.trials" {
				n += e.Value
			}
		}
		return n
	}
	var builds [2]time.Duration
	var counts [2]float64
	for i := range builds {
		t0, n0 := time.Now(), trials()
		err := repro.TryRun(g.p, func(c *repro.Comm) {
			repro.NewTunedTransform(c, g.n, benchWorkers, repro.DecompSlab, dir, nil).Close()
		})
		if err != nil {
			return err
		}
		builds[i], counts[i] = time.Since(t0), trials()-n0
	}
	out["tuning.cold_build_s"] = builds[0].Seconds()
	out["tuning.warm_build_s"] = builds[1].Seconds()
	out["tuning.trials_cold"] = counts[0]
	out["tuning.trials_warm"] = counts[1]
	return nil
}
