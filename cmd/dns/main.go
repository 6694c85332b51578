// Command dns runs a real pseudo-spectral direct numerical simulation
// of isotropic turbulence at laptop scale, using either the
// synchronous slab transform or the paper's batched asynchronous GPU
// pipeline for every 3D FFT. It prints per-step timings (max over
// ranks, as the paper reports) and the standard physics diagnostics.
//
// Example:
//
//	dns -n 64 -ranks 4 -steps 10 -engine async -np 4 -gran pencil -forced
//
// The equation set is pluggable: -system picks a registered system by
// name (ns, forced-ns, rotating-scalar), or is inferred from -forced,
// -force-eps, -rotation and -scalar.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/exchange"
	"repro/internal/fft"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/pfft"
	"repro/internal/spectral"
	"repro/internal/stats"
	"repro/internal/tuning"
)

func main() {
	var (
		n        = flag.Int("n", 32, "grid points per direction (even, divisible by ranks)")
		ranks    = flag.Int("ranks", 2, "MPI ranks (in-process)")
		steps    = flag.Int("steps", 5, "time steps")
		dt       = flag.Float64("dt", 0.005, "time step size")
		nu       = flag.Float64("nu", 0.01, "kinematic viscosity")
		scheme   = flag.String("scheme", "rk2", "time scheme: rk2 or rk4")
		engine   = flag.String("engine", "sync", "transform engine: sync or async")
		np       = flag.Int("np", 3, "pencils per slab (needs -engine async)")
		gran     = flag.String("gran", "slab", "all-to-all granularity: pencil or slab (needs -engine async)")
		exch     = flag.String("exchange", "auto", "transpose-exchange strategy: auto, fused, chunked or at (auto microbenchmarks at startup and pins the winner; at needs -at-stale)")
		decomp   = flag.String("decomp", "slab", "field decomposition of the one transform engine: slab (the ranks x 1 grid), a PRxPC pencil grid such as 2x4, or auto (times every grid that fits N and ranks and pins the fastest); non-slab selects the transform drive loop — one forward+inverse transform pair per step — which also runs at ranks > N, past the slab scaling wall")
		autotune = flag.Bool("autotune", false, "whole-step autotuning: search exchange strategy and engine knobs together at startup and pin the collectively-agreed winner")
		tuneDir  = flag.String("tunecache", "", "persist autotuner decisions as JSON under this directory (implies -autotune; a warm cache skips the startup trials)")
		atStale  = flag.Int("at-stale", -1, "asynchrony-tolerant stepping: bounded-staleness exchanges with this staleness bound in exchange epochs (-1 = off; implies -exchange at)")
		atDL     = flag.Duration("at-deadline", 50*time.Millisecond, "asynchrony-tolerant stepping: soft wait for peers within the staleness bound (0 = never wait past the hard bound; needs -at-stale)")
		ngpu     = flag.Int("ngpu", 1, "devices per rank (needs -engine async)")
		workers  = flag.Int("workers", 1, "worker-team size per rank (FFT batch + pack/unpack parallelism; results identical for any value)")
		system   = flag.String("system", "", "equation set by registered name (default: inferred from the physics flags)")
		forced   = flag.Bool("forced", false, "sustain stationary turbulence (stochastic large-scale forcing)")
		forceKF  = flag.Int("force-kf", 2, "highest forced shell for -forced / -force-eps")
		forceEps = flag.Float64("force-eps", 0, "energy injection rate (0 with -forced picks a default)")
		rotation = flag.Float64("rotation", 0, "frame rotation rate Ω about ẑ (Coriolis)")
		k0       = flag.Float64("k0", 3, "initial spectrum peak wavenumber")
		e0       = flag.Float64("e0", 0.5, "initial kinetic energy")
		seed     = flag.Int64("seed", 2025, "initial condition seed")
		scalar   = flag.Bool("scalar", false, "carry a passive scalar with unit mean gradient (rotating-scalar system)")
		schmidt  = flag.Float64("sc", 1.0, "Schmidt number ν/κ for -scalar")
		pngOut   = flag.String("png", "", "write a z-midplane PNG of u to this path at the end")
		ckptDir  = flag.String("ckpt", "", "write a checkpoint directory at the end (for cmd/postproc)")
		metOn    = flag.Bool("metrics", false, "record runtime metrics over the step loop and print the per-phase breakdown")
		metJSON  = flag.String("metrics-json", "", "also dump the full metrics snapshot as JSON to this path (implies -metrics)")

		watchOn     = flag.Bool("watchdog", true, "run the MPI stall watchdog (deadlock detection)")
		deadlockWin = flag.Duration("deadlock-after", 0, "declare a deadlock after this quiescent window (0 = runtime default 2s)")
		opDeadline  = flag.Duration("op-deadline", 0, "abort when a rank stays blocked in one MPI operation longer than this; on every engine a blown deadline prints \"stall during time stepping\" with the step number (0 = off)")
		faultSeed   = flag.Int64("fault-seed", 1, "fault injection: RNG seed (deterministic per seed)")
		faultDrop   = flag.Float64("fault-drop", 0, "fault injection: per-message drop probability in [0,1]")
		faultDup    = flag.Float64("fault-dup", 0, "fault injection: per-message duplication probability in [0,1]")
		faultDelay  = flag.Duration("fault-delay", 0, "fault injection: fixed extra latency per message")
		faultCrash  = flag.String("fault-crash", "", "fault injection: crash schedule as rank:op (1-based operation index)")
	)
	flag.Parse()
	if *metJSON != "" {
		*metOn = true
	}

	dec, err := tuning.ParseDecomp(*decomp)
	if err != nil {
		log.Fatalf("-decomp: %v", err)
	}
	if err := checkDecomp(dec, *n, *ranks); err != nil {
		log.Fatal(err)
	}
	if err := checkWatchdog(*watchOn, *opDeadline, *deadlockWin); err != nil {
		log.Fatal(err)
	}
	if *system != "" && spectral.SystemCode(*system) < 0 {
		log.Fatalf("-system: unknown equation set %q; registered systems: %s",
			*system, strings.Join(spectral.Systems(), ", "))
	}
	if *forced && *forceEps == 0 {
		*forceEps = spectral.DefaultForcingEps
	}
	if *scalar && *forceEps > 0 {
		log.Fatalf("-scalar runs the rotating-scalar system, which carries no forcing; drop -forced/-force-eps")
	}
	if *scalar && *system != "" && *system != "rotating-scalar" {
		log.Fatalf("-scalar runs the rotating-scalar system, not -system %s", *system)
	}
	if *scalar {
		if err := (spectral.SystemSpec{Scalars: []spectral.ScalarSpec{{Schmidt: *schmidt}}}).Validate(); err != nil {
			log.Fatalf("-sc: %v", err)
		}
	}
	sch, err := spectral.ParseScheme(*scheme)
	if err != nil {
		log.Fatalf("-scheme: %v", err)
	}
	async, err := parseEngine(*engine)
	if err != nil {
		log.Fatalf("-engine: %v", err)
	}
	granularity, err := pfft.ParseGranularity(*gran)
	if err != nil {
		log.Fatalf("-gran: %v", err)
	}
	strategy, err := exchange.Parse(*exch)
	if err != nil {
		log.Fatalf("-exchange: %v", err)
	}
	if *atStale >= 0 && strategy != exchange.AT {
		if strategy != exchange.Auto {
			log.Fatalf("-at-stale combines only with -exchange at (or auto), not %s", strategy)
		}
		strategy = exchange.AT
	}
	if strategy == exchange.AT && *atStale < 0 {
		log.Fatalf("-exchange at needs a staleness bound: set -at-stale (0 waits for every peer, k lets peers lag k exchange epochs)")
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkEngineFlags(set, async, strategy == exchange.AT); err != nil {
		log.Fatal(err)
	}
	if *tuneDir != "" {
		*autotune = true
	}
	if *autotune && strategy != exchange.Auto {
		log.Fatalf("-autotune searches the strategy itself; it combines only with -exchange auto, not %s", strategy)
	}

	runOpts := []mpi.RunOption{mpi.WithWatchdog(mpi.Watchdog{
		Off:           !*watchOn,
		Deadline:      *opDeadline,
		DeadlockAfter: *deadlockWin,
	})}
	if *faultDrop > 0 || *faultDup > 0 || *faultDelay > 0 || *faultCrash != "" {
		f := &mpi.Faults{Seed: *faultSeed}
		if *faultDrop > 0 || *faultDup > 0 || *faultDelay > 0 {
			rule := mpi.MatchAll()
			rule.DropProb = *faultDrop
			rule.DupProb = *faultDup
			rule.Delay = *faultDelay
			f.Rules = []mpi.FaultRule{rule}
		}
		if *faultCrash != "" {
			var rank, op int
			if _, err := fmt.Sscanf(*faultCrash, "%d:%d", &rank, &op); err != nil {
				log.Fatalf("-fault-crash must be rank:op, got %q", *faultCrash)
			}
			f.Crash = map[int]int{rank: op}
		}
		runOpts = append(runOpts, mpi.WithFaults(f))
	}

	if !dec.IsSlab() {
		// Non-slab decompositions are a transform-level feature: the
		// solver's state lives on the slab layout, so -decomp pencil/auto
		// drives the tuned transform directly — one forward+inverse pair
		// per step — which is also the only mode that runs at ranks > N.
		if async {
			log.Fatalf("-decomp %s: the asynchronous engine is slab-only; drop -engine async", dec)
		}
		if strategy == exchange.AT {
			log.Fatalf("-decomp %s combines with a concrete or auto -exchange, not at", dec)
		}
		if err := runTransformDrive(dec, strategy, *n, *ranks, *steps, *workers, *tuneDir, *metOn, runOpts); err != nil {
			log.Fatalf("run failed: %v", err)
		}
		if *metOn {
			fft.PublishMetrics(metrics.Default())
			snap := metrics.Default().Snapshot()
			printPhaseBreakdown(snap, *steps)
			fmt.Println("runtime metrics (max over ranks):")
			fmt.Print(snap.MaxOverRanks().Text())
		}
		os.Exit(0)
	}

	fmt.Printf("DNS %d³ on %d ranks, %s, engine=%s ν=%g dt=%g\n",
		*n, *ranks, *scheme, *engine, *nu, *dt)

	err = mpi.TryRun(*ranks, func(c *mpi.Comm) {
		opts := []spectral.Option{
			spectral.WithNu(*nu),
			spectral.WithScheme(sch),
			spectral.WithDealias(spectral.Dealias23),
		}
		if *forceEps > 0 {
			opts = append(opts, spectral.WithForcing(*forceKF, *forceEps))
		}
		if *rotation != 0 {
			opts = append(opts, spectral.WithRotation(*rotation))
		}
		if *scalar {
			opts = append(opts, spectral.WithScalars(1, *schmidt), spectral.WithScalarGradient(1))
		}
		if *system != "" {
			opts = append(opts, spectral.WithSystem(*system))
		}
		var tune tuning.Config
		if *tuneDir != "" {
			tune.Cache = tuning.Open(*tuneDir)
		}
		// -engine sync is the one slab engine at np 1, one exchange per
		// slab, one device; -engine async takes the pipeline flags.
		opt := pfft.Options{
			NP: 1, Granularity: pfft.PerSlab, NGPU: 1,
			Workers:    *workers,
			Exchange:   strategy,
			ATMaxStale: max(*atStale, 0),
			ATDeadline: *atDL,
		}
		if async {
			opt.NP, opt.Granularity, opt.NGPU = *np, granularity, *ngpu
		}
		var tr *pfft.SlabReal
		if *autotune {
			tr = pfft.NewAsyncSlabRealTuned(c, *n, opt, tune)
		} else {
			tr = pfft.NewAsyncSlabReal(c, *n, opt)
		}
		defer tr.Close()
		pinned := tr.StrategyPair()
		opts = append(opts, spectral.WithTransform(tr))
		solver := spectral.New(c, *n, opts...)
		defer solver.Close()
		if c.Rank() == 0 {
			fmt.Printf("transpose-exchange strategy: %s\n", pinned)
			fmt.Printf("equation set: %s (%d fields)\n", solver.System().Name(), solver.Fields())
			fmt.Printf("transform band: |k_i| ≤ %d of %d\n", solver.Kmax(), *n/2)
		}
		solver.SetRandomIsotropic(*k0, *e0, *seed)

		timer := stats.NewStepTimer(c)
		root := c.Rank() == 0
		if root {
			st := solver.Statistics()
			fmt.Printf("t=%.4f  E=%.5f  ε=%.5f  Re_λ=%.1f  kmaxη=%.2f  div=%.2e\n",
				solver.Time(), st.Energy, st.Dissipation, st.ReLambda, st.KMaxEta, solver.DivergenceMax())
		} else {
			solver.Statistics()
			solver.DivergenceMax()
		}
		if *metOn {
			// Record only the step loop, so the phase histograms
			// measure steps rather than setup and diagnostics.
			c.Barrier()
			metrics.Enable()
			restateGauges(c, pinned, solver.Kmax())
			c.Metrics().GaugeRank("solver.system", c.Rank()).
				Set(float64(spectral.SystemCode(solver.System().Name())))
		}
		for i := 0; i < *steps; i++ {
			timer.Begin()
			solver.Step(*dt)
			wall := timer.End()
			e := solver.Energy()
			if root {
				fmt.Printf("step %3d  t=%.4f  E=%.5f  wall=%.3fs\n",
					solver.StepCount(), solver.Time(), e, wall)
			}
		}
		if *metOn {
			c.Barrier()
			metrics.Disable()
		}
		st := solver.Statistics()
		div := solver.DivergenceMax()
		cfl := solver.CFL(*dt)
		if root {
			fmt.Printf("final: E=%.5f ε=%.5f Ω=%.4f u'=%.4f λ=%.4f Re_λ=%.1f η=%.4g kmaxη=%.2f\n",
				st.Energy, st.Dissipation, st.Enstrophy, st.URMS, st.TaylorScale, st.ReLambda, st.Kolmogorov, st.KMaxEta)
			fmt.Printf("invariants: max|k·û|=%.2e  CFL=%.3f\n", div, cfl)
			if strategy == exchange.AT {
				fmt.Printf("asynchrony-tolerant: %d of %d steps staleness-corrected on rank 0 (bound %d epochs, deadline %v)\n",
					solver.ATCorrections(), *steps, *atStale, *atDL)
			}
			fmt.Printf("time/step (max over ranks, averaged): %.3fs over %d steps\n",
				timer.MeanMax(), timer.Steps())
			spec := solver.Spectrum()
			fmt.Println("energy spectrum E(k):")
			for k := 1; k < len(spec) && k <= 12; k++ {
				fmt.Printf("  k=%2d  %.4e\n", k, spec[k])
			}
		} else {
			solver.Spectrum()
		}
		diags := solver.SystemDiagnostics()
		if root && len(diags) > 0 {
			fmt.Printf("system diagnostics (%s):\n", solver.System().Name())
			for _, d := range diags {
				fmt.Printf("  %-18s %.6g\n", d.Name, d.Value)
			}
		}
		if *scalar {
			v := solver.FieldVariance(3)
			chi := solver.FieldDissipation(3)
			if root {
				fmt.Printf("scalar: ⟨θ²⟩=%.5g  χ=%.5g  (Sc=%g)\n", v, chi, *schmidt)
			}
		}
		if *ckptDir != "" {
			if err := solver.SaveCheckpoint(*ckptDir); err != nil {
				log.Fatalf("rank %d: checkpoint: %v", c.Rank(), err)
			}
			if root {
				fmt.Printf("checkpoint written to %s\n", *ckptDir)
			}
		}
		if *pngOut != "" {
			plane := solver.SliceZ(0, *n/2)
			if root {
				f, err := os.Create(*pngOut)
				if err != nil {
					log.Fatal(err)
				}
				if err := spectral.WriteSlicePNG(f, plane, *n, *n); err != nil {
					log.Fatal(err)
				}
				f.Close()
				fmt.Printf("wrote %s\n", *pngOut)
			}
		}
	}, runOpts...)
	if err != nil {
		var st *mpi.StallError
		var se *spectral.StepStallError
		switch {
		case errors.As(err, &se):
			log.Fatalf("stall during time stepping: %v", se)
		case errors.As(err, &st):
			log.Fatalf("watchdog: %v", st)
		default:
			log.Fatalf("run failed: %v", err)
		}
	}

	if *metOn {
		fft.PublishMetrics(metrics.Default())
		snap := metrics.Default().Snapshot()
		printPhaseBreakdown(snap, *steps)
		fmt.Println("runtime metrics (max over ranks):")
		fmt.Print(snap.MaxOverRanks().Text())
		if *metJSON != "" {
			f, err := os.Create(*metJSON)
			if err != nil {
				log.Fatal(err)
			}
			if err := snap.WriteJSON(f); err != nil {
				log.Fatal(err)
			}
			f.Close()
			fmt.Printf("wrote metrics snapshot to %s\n", *metJSON)
		}
	}
	os.Exit(0)
}

// parseEngine maps the -engine flag to whether the batched
// asynchronous pipeline runs the transforms.
func parseEngine(s string) (async bool, err error) {
	switch s {
	case "sync":
		return false, nil
	case "async":
		return true, nil
	}
	return false, fmt.Errorf("unknown engine %q (want sync or async)", s)
}

// checkDecomp rejects, before any rank starts, a decomposition that
// cannot lay an N³ field out over ranks ranks.
func checkDecomp(dec tuning.Decomp, n, ranks int) error {
	switch {
	case dec.IsSlab() && n%ranks != 0:
		return fmt.Errorf("ranks must divide N: %d %% %d != 0 (a pencil -decomp lifts this constraint)", n, ranks)
	case dec.IsPencil() && !dec.Valid(n, ranks):
		return fmt.Errorf("-decomp %s invalid for N=%d ranks=%d (need Pr·Pc=ranks, Pr|N, Pc|N, Pc ≤ N/2+1)", dec, n, ranks)
	case dec.IsAuto() && len(tuning.Decompositions(n, ranks)) == 0:
		return fmt.Errorf("-decomp auto: no decomposition fits N=%d ranks=%d (need ranks|N, or Pr·Pc=ranks with Pr|N, Pc|N, Pc ≤ N/2+1)", n, ranks)
	}
	return nil
}

// checkWatchdog rejects a stall bound the run would drop: with
// -watchdog=false no monitor runs, and the watchdog is the only thing
// that bounds a wait.
func checkWatchdog(on bool, opDeadline, deadlockAfter time.Duration) error {
	switch {
	case on:
		return nil
	case opDeadline != 0:
		return fmt.Errorf("-op-deadline %v needs the watchdog: drop -watchdog=false or -op-deadline", opDeadline)
	case deadlockAfter != 0:
		return fmt.Errorf("-deadlock-after %v needs the watchdog: drop -watchdog=false or -deadlock-after", deadlockAfter)
	}
	return nil
}

// checkEngineFlags rejects an engine flag the run would ignore: set
// holds the flags given on the command line (flag.Visit). The soft
// deadline only bounds the asynchrony-tolerant exchange, and -np,
// -gran and -ngpu only configure the batched pipeline.
func checkEngineFlags(set map[string]bool, async, at bool) error {
	if set["at-deadline"] && !at {
		return fmt.Errorf("-at-deadline needs the asynchrony-tolerant exchange: set -at-stale (or -exchange at) or drop -at-deadline")
	}
	for _, name := range []string{"np", "gran", "ngpu"} {
		if set[name] && !async {
			return fmt.Errorf("-%s configures the batched pipeline: add -engine async or drop -%s", name, name)
		}
	}
	return nil
}

// phaseLeaves are the disjoint wall sections of one time step: the
// solver's own arithmetic plus the transform engine's phases
// (pipeline and exchange, on every grid).
var phaseLeaves = []string{"phase.a2a", "phase.pipeline", "phase.compute"}

// printPhaseBreakdown reports the per-phase step decomposition of the
// slowest rank — the rank with the largest total step time, matching
// the paper's max-over-ranks reporting — and how much of that rank's
// measured wall time the phases account for.
func printPhaseBreakdown(snap metrics.Snapshot, steps int) {
	var wall metrics.Entry
	for _, e := range snap.Entries {
		if e.Name == "phase.step" && e.Value > wall.Value {
			wall = e
		}
	}
	if wall.Count == 0 || steps == 0 {
		fmt.Println("metrics: no step phases recorded")
		return
	}
	fmt.Printf("per-phase step breakdown (slowest rank %d, %d steps):\n", wall.Rank, steps)
	total := 0.0
	for _, name := range phaseLeaves {
		e, ok := snap.Get(name, wall.Rank)
		if !ok || e.Value == 0 {
			continue
		}
		total += e.Value
		fmt.Printf("  %-10s %10.4fs/step  %5.1f%%\n",
			strings.TrimPrefix(name, "phase."), e.Value/float64(steps), 100*e.Value/wall.Value)
	}
	fmt.Printf("  %-10s %10.4fs/step  (phases cover %.1f%% of wall)\n",
		"wall", wall.Value/float64(steps), 100*total/wall.Value)
}

// restateGauges sets the gauges the engine pins at construction, while
// the registry is still off — its strategy pair and its band — on the
// calling rank. Both run modes call it right after metrics.Enable (the
// solver run also restates the solver's system gauge).
func restateGauges(c *mpi.Comm, pair exchange.Pair, kmax int) {
	reg, rank := c.Metrics(), c.Rank()
	reg.GaugeRank("exchange.strategy", rank).Set(pair.YZ.Code())
	reg.GaugeRank("exchange.strategy.zy", rank).Set(pair.ZY.Code())
	reg.GaugeRank("transform.kmax", rank).Set(float64(kmax))
}

// runTransformDrive is the -decomp pencil/auto mode: build the tuned
// real-field transform for the requested decomposition and drive
// forward+inverse transform pairs, reporting per-step wall times (max
// over ranks) and the round-trip error. This is the path that runs at
// ranks > N, where no slab layout exists.
func runTransformDrive(dec tuning.Decomp, strategy exchange.Strategy, n, ranks, steps, workers int, tuneDir string, metOn bool, runOpts []mpi.RunOption) error {
	fmt.Printf("transform drive %d³ on %d ranks, decomp=%s (forward+inverse pair per step)\n", n, ranks, dec)
	return mpi.TryRun(ranks, func(c *mpi.Comm) {
		var cfg tuning.Config
		if tuneDir != "" {
			cfg.Cache = tuning.Open(tuneDir)
		}
		if strategy != exchange.Auto {
			cfg.Space.Strategies = []exchange.Strategy{strategy}
		}
		tr := pfft.NewRealTuned(c, n, workers, dec, cfg)
		defer tr.Close()
		root := c.Rank() == 0
		if root {
			layout := "slab"
			if d := tr.Decomp(); d.IsPencil() {
				layout = "pencil " + d.String()
			}
			pair := tr.StrategyPair()
			fmt.Printf("decomposition: %s\n", layout)
			fmt.Printf("transpose-exchange strategies: yz=%s zy=%s\n", pair.YZ, pair.ZY)
		}
		phys := make([]float64, tr.PhysicalLen())
		orig := make([]float64, tr.PhysicalLen())
		four := make([]complex128, tr.FourierLen())
		base := c.Rank() * tr.PhysicalLen()
		for i := range phys {
			phys[i] = math.Sin(0.37 * float64(base+i))
		}
		copy(orig, phys)
		timer := stats.NewStepTimer(c)
		if metOn {
			c.Barrier()
			metrics.Enable()
			restateGauges(c, tr.StrategyPair(), n/2) // the drive's transform is full band
		}
		for i := 0; i < steps; i++ {
			timer.Begin()
			tr.PhysicalToFourier(four, phys)
			tr.FourierToPhysical(phys, four)
			wall := timer.End()
			if root {
				fmt.Printf("step %3d  wall=%.3fs\n", i+1, wall)
			}
		}
		if metOn {
			c.Barrier()
			metrics.Disable()
		}
		diff := []float64{0}
		for i := range phys {
			if d := math.Abs(phys[i] - orig[i]); d > diff[0] {
				diff[0] = d
			}
		}
		mpi.AllreduceMax(c, diff)
		if root {
			fmt.Printf("round-trip max|err| after %d pairs: %.3e\n", steps, diff[0])
			fmt.Printf("time/step (max over ranks, averaged): %.3fs over %d steps\n",
				timer.MeanMax(), timer.Steps())
		}
	}, runOpts...)
}
