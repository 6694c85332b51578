package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/internal/hw"
)

// A block is the unit every sample comes from: one fresh world that is
// set up, warmed with two steps, stepped a fixed number of times with
// every step barrier-fenced, checked, and torn down. The driver runs a
// block per child process; -smoke runs them in-process.

type blockMode string

const (
	modePlain   blockMode = "plain"   // nothing on: the only blocks end-to-end numbers come from
	modeMetrics blockMode = "metrics" // the program's metrics registry on, no spans
	modeTraced  blockMode = "traced"  // registry on and spans recorded
)

type blockSpec struct {
	Workload string
	Seed     int64
	Steps    int
	Mode     blockMode
	Probes   bool   // run the micro-probes after the block (traced blocks only)
	WorkDir  string // scratch for checkpoints, tuning caches and trace files
	Smoke    bool
}

// configEcho is the configuration a block resolved, read back from
// what was built rather than from what was asked for.
type configEcho struct {
	Geometry    string
	GOMAXPROCS  int
	Workers     int
	Strategy    string
	GoVersion   string
	NumCPU      int
	Fingerprint string
}

type blockReport struct {
	Workload  string
	Mode      blockMode
	Config    configEcho
	Attempted int
	Failed    int
	Errors    []string

	SetupS      float64
	HeapLiveMB  float64
	FirstStepMS float64
	StepMS      []float64 // one barrier-fenced sample per timed step
	CalMS       []float64 // the calibration sample that followed each step, per repetition
	GCCycles    int
	Mallocs     int64 // heap objects allocated inside the timed window

	WarmInvariant  float64 // after the warm-up steps
	FinalInvariant float64 // after the timed steps
	RoundTripErr   float64

	// Traced blocks only.
	Layers     map[string]float64
	SpanRootMS float64 // Σ step spans on rank 0
	SpanSelfMS float64 // Σ self time of every span on rank 0; equals SpanRootMS when attribution is sound
	TraceFile  string
}

func (r *blockReport) fail(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	r.Failed = r.Attempted
}

// fenced runs one step between two barriers and returns its wall time:
// the paper's max-over-ranks convention, independent of the order the
// scheduler runs ranks in when they outnumber threads.
func fenced(c *repro.Comm, ring *spanRing, step func()) time.Duration {
	c.Barrier()
	t0 := time.Now()
	sp := ring.begin(spanStep)
	step()
	ring.end(sp)
	c.Barrier()
	return time.Since(t0)
}

// calibrate times the machine-factor kernel right after a step, under
// the same fences and on as many ranks as there are threads, and
// returns the time of one repetition.
func calibrate(c *repro.Comm, k *calKernel, reps int) float64 {
	c.Barrier()
	t0 := time.Now()
	if k != nil {
		k.run(reps)
	}
	c.Barrier()
	return time.Since(t0).Seconds() * 1e3 / float64(reps)
}

func runBlock(spec blockSpec) *blockReport {
	rep := &blockReport{Workload: spec.Workload, Mode: spec.Mode, Attempted: spec.Steps}
	w := findWorkload(spec.Workload)
	if w == nil {
		rep.fail("unknown workload %q", spec.Workload)
		return rep
	}
	if runtime.NumCPU() < benchProcs {
		rep.fail("nproc = %d; the workloads are sized for %d", runtime.NumCPU(), benchProcs)
		return rep
	}
	g := w.geometry(spec.Smoke)
	prev := runtime.GOMAXPROCS(benchProcs)
	defer runtime.GOMAXPROCS(prev)
	if spec.Mode != modePlain {
		repro.EnableMetrics()
		defer repro.DisableMetrics()
	}

	var rings []*spanRing
	if spec.Mode == modeTraced {
		rings = make([]*spanRing, g.p)
	}
	partial := make([]float64, g.p)
	samples := make([]float64, 0, spec.Steps)
	cals := make([]float64, 0, spec.Steps)
	kernels := make([]*calKernel, g.p) // ranks beyond the thread count only keep the fences
	for i := 0; i < min(g.p, benchProcs); i++ {
		kernels[i] = newCalKernel()
	}
	reps := 1
	if !spec.Smoke {
		reps = calReps(w)
	}
	var before, after repro.MetricsSnapshot
	var ms0, ms1 runtime.MemStats

	start := time.Now()
	err := repro.TryRun(g.p, func(c *repro.Comm) {
		rank := c.Rank()
		var ring *spanRing
		if rings != nil {
			ring = newSpanRing(rank, (spec.Steps+warmupSteps)*(w.xformsPerStep+1), start)
			rings[rank] = ring
		}
		run := w.build(c, buildEnv{g: g, seed: spec.Seed, ring: ring, partial: partial})
		defer run.close()
		c.Barrier()
		if rank == 0 {
			rep.SetupS = time.Since(start).Seconds()
			rep.Config = configEcho{
				Geometry: g.String(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: benchWorkers,
				Strategy: run.strategy, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
				Fingerprint: hw.Fingerprint(),
			}
		}

		for i := 0; i < warmupSteps; i++ {
			ring.setStep(i - warmupSteps)
			d := fenced(c, ring, run.step)
			if rank == 0 && i == 0 {
				rep.FirstStepMS = d.Seconds() * 1e3
			}
			calibrate(c, kernels[rank], reps)
		}
		warm := run.invariant()

		// Rank 0 takes the heap reading and opens the window while the
		// others wait at the barrier.
		if rank == 0 {
			rep.WarmInvariant = warm
			if spec.Mode != modePlain {
				before = repro.MetricsSnapshotNow()
			}
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			rep.HeapLiveMB = float64(ms0.HeapAlloc) / 1e6
		}
		// The collection emptied the runtime's per-thread caches of wait
		// records; a few barriers refill them so their reallocation is
		// not charged to the window.
		for i := 0; i < 8; i++ {
			c.Barrier()
		}
		if rank == 0 {
			runtime.ReadMemStats(&ms0)
		}
		c.Barrier()
		for i := 0; i < spec.Steps; i++ {
			ring.setStep(i)
			d := fenced(c, ring, run.step)
			cal := calibrate(c, kernels[rank], reps)
			if rank == 0 {
				samples = append(samples, d.Seconds()*1e3)
				cals = append(cals, cal)
			}
		}
		if rank == 0 {
			runtime.ReadMemStats(&ms1)
			if spec.Mode != modePlain {
				after = repro.MetricsSnapshotNow()
			}
		}
		c.Barrier()

		final := run.invariant()
		partial[rank] = 0
		if run.roundTrip != nil {
			partial[rank] = run.roundTrip()
		}
		c.Barrier()
		worst := maxOf(partial)
		c.Barrier()
		if rank == 0 {
			rep.FinalInvariant, rep.RoundTripErr = final, worst
		}
		if spec.Mode == modeTraced && !w.pair() {
			probed := solverProbes(c, run.solver, filepath.Join(spec.WorkDir, "ckpt-"+spec.Workload))
			if rank == 0 {
				rep.Layers = probed
			}
		}
	})
	rep.StepMS, rep.CalMS = samples, cals
	rep.GCCycles = int(ms1.NumGC - ms0.NumGC)
	rep.Mallocs = int64(ms1.Mallocs - ms0.Mallocs)
	if err != nil {
		rep.fail("world failed: %v", err)
		return rep
	}
	checkBlock(rep, w, spec)

	if spec.Mode == modeTraced {
		if rep.Layers == nil {
			rep.Layers = map[string]float64{}
		}
		rep.Layers["spectral.first_step_ms"] = rep.FirstStepMS
		t := rings[0].totals()
		rep.SpanRootMS, rep.SpanSelfMS = float64(t.rootNS)/1e6, float64(t.selfNS+t.childNS)/1e6
		layerMetrics(rep.Layers, g, spec.Steps, t, rings[0].lost, regDelta{before, after})
		rep.TraceFile = filepath.Join(spec.WorkDir, fmt.Sprintf("trace-%s-seed%d.json", spec.Workload, spec.Seed))
		if err := writeChromeTrace(rep.TraceFile, rings); err != nil {
			rep.fail("%v", err)
		}
		if spec.Probes {
			if err := runProbes(rep.Layers, g, spec); err != nil {
				rep.fail("probes: %v", err)
			}
		}
	}
	return rep
}

// checkBlock applies the answer checks to a finished block. A failed
// check fails every step of the block.
func checkBlock(rep *blockReport, w *workload, spec blockSpec) {
	if rep.Config.Strategy != pinned {
		rep.fail("built engine reports strategy %q, want %q: an unpinned constructor reached a timed path", rep.Config.Strategy, pinned)
	}
	if rep.Config.GOMAXPROCS != benchProcs {
		rep.fail("GOMAXPROCS = %d inside the block, want %d", rep.Config.GOMAXPROCS, benchProcs)
	}
	if len(rep.StepMS) != spec.Steps {
		rep.fail("%d samples from %d steps", len(rep.StepMS), spec.Steps)
	}
	for _, v := range []*float64{&rep.WarmInvariant, &rep.FinalInvariant} {
		if math.IsNaN(*v) || math.IsInf(*v, 0) || *v <= 0 {
			rep.fail("invariant %g is not a finite positive number", *v)
			*v = 0 // the report travels as JSON, which has no NaN
		}
	}
	if len(rep.Errors) > 0 {
		return
	}
	if !w.pair() {
		// Every stepping workload decays: viscosity only removes energy
		// and rotation does no work.
		if rep.FinalInvariant > rep.WarmInvariant {
			rep.fail("energy grew over the block: %.17g -> %.17g", rep.WarmInvariant, rep.FinalInvariant)
		}
	} else {
		if rep.RoundTripErr > 1e-11 {
			rep.fail("transform round trip drifted by %g after %d pairs", rep.RoundTripErr, spec.Steps+warmupSteps)
		}
		if d := relDiff(rep.FinalInvariant, rep.WarmInvariant); d > 1e-11 {
			rep.fail("spectral checksum moved by %g across identity round trips", d)
		}
	}
	if spec.Smoke || spec.Seed != goldenSeed {
		return
	}
	gold := w.golden
	if d := relDiff(rep.WarmInvariant, gold.warm); d > gold.relTol {
		rep.fail("golden mismatch after warm-up: got %.17g, pinned %.17g (rel %g)", rep.WarmInvariant, gold.warm, d)
	}
	if spec.Steps == gold.steps {
		if d := relDiff(rep.FinalInvariant, gold.final); d > gold.relTol {
			rep.fail("golden mismatch after %d steps: got %.17g, pinned %.17g (rel %g)", spec.Steps, rep.FinalInvariant, gold.final, d)
		}
	}
}

const goldenSeed = 1

// solverProbes times the two solver services a step does not use: the
// collective energy reduction, and one checkpoint save and reload
// (file size and both rates). Collective; the returned map is only
// meaningful on rank 0.
func solverProbes(c *repro.Comm, s *repro.Solver, dir string) map[string]float64 {
	out := map[string]float64{}
	reduce := bestOf(20, func() { s.Energy() })
	c.Barrier()
	t0 := time.Now()
	werr := s.SaveCheckpoint(dir)
	write := time.Since(t0).Seconds()
	t0 = time.Now()
	rerr := s.LoadCheckpoint(dir)
	read := time.Since(t0).Seconds()
	if c.Rank() != 0 {
		return out
	}
	out["spectral.reduce_us"] = float64(reduce.Nanoseconds()) / 1e3
	if werr != nil || rerr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: checkpoint probe: save %v, load %v\n", werr, rerr)
		return out
	}
	var bytes int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			bytes += info.Size()
		}
	}
	mb := float64(bytes) / 1e6
	out["spectral.ckpt_mb"] = mb
	out["spectral.ckpt_write_mb_s"] = mb / write
	out["spectral.ckpt_read_mb_s"] = mb / read
	return out
}
