package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro"
	"repro/internal/exchange"
	"repro/internal/pfft"
)

// Every timed world is built from these constants and nothing else:
// no Auto strategy, no tuned constructor, no default transform.
const (
	benchProcs   = 2 // GOMAXPROCS of every block
	benchWorkers = 1
	benchDt      = 1e-3
	benchNu      = 0.01
	asyncNP      = 4
	warmupSteps  = 2
	pinned       = "chunked/chunked"
)

// geometry is the grid a block runs on: the workload's own, or the
// shrunken one of -smoke.
type geometry struct {
	n, p   int
	pr, pc int // pencil process grid (pr·pc = p), zero on slab workloads
}

func (g geometry) cells() float64 { return float64(g.n) * float64(g.n) * float64(g.n) }

// rankRun is one rank's share of a built workload: the closed-loop
// unit of work, the collective invariant the checks read (kinetic
// energy, or the spectral checksum of the transform pair), and the
// strategy pair read back from the engine that was actually built.
type rankRun struct {
	step      func()
	invariant func() float64
	// roundTrip is the max |phys − original| over this rank's share
	// (transform-pair workloads only; nil otherwise).
	roundTrip func() float64
	solver    *repro.Solver // nil on transform-pair workloads
	strategy  string
	close     func()
}

// buildEnv is what a workload's builder gets besides its communicator.
type buildEnv struct {
	g    geometry
	seed int64
	ring *spanRing // this rank's span ring; nil when the block is not traced
	// partial has one slot per rank and is shared by the whole world
	// (ranks are goroutines): ranks leave partial sums there so rank 0
	// can add them in rank order, which keeps pinned values bit-stable.
	partial []float64
}

// golden pins the answers of seed 1 at the default step counts.
type golden struct {
	steps  int     // timed steps the final value was recorded after
	warm   float64 // invariant after the warm-up steps
	final  float64 // invariant after steps more
	relTol float64
}

type workload struct {
	name string
	why  string
	full geometry
	tiny geometry // -smoke
	// stepMS is the pinned nominal mean cost of one step on the 2-vCPU
	// reference box. It only converts -seconds into a fixed step count;
	// it is never measured and never adapts.
	stepMS float64
	// xformsPerStep sizes the span ring (upper bound, pairs count 2).
	xformsPerStep int
	build         func(c *repro.Comm, env buildEnv) *rankRun
	golden        golden
}

var workloads = []*workload{
	{
		name:   "ns_slab_n64",
		why:    "decaying NS, RK2, N=64, 2 ranks, sync slab engine: the everyday DNS step (fft 66%, exchange 15%, solver 18%); the row the others are read against",
		full:   geometry{n: 64, p: 2},
		tiny:   geometry{n: 16, p: 2},
		stepMS: 105, xformsPerStep: 18,
		build:  buildNS(false),
		golden: golden{steps: 12, warm: 0.4996898795628673, final: 0.4978352920078509, relTol: 1e-10},
	},
	{
		name:   "ns_async_n64",
		why:    "same physics and seed on the paper's batched async engine (np=4, per-pencil): core+cuda carry the step, pfft does nothing, so an engine-only change shows here alone",
		full:   geometry{n: 64, p: 2},
		tiny:   geometry{n: 16, p: 2},
		stepMS: 125, xformsPerStep: 18,
		build:  buildNS(true),
		golden: golden{steps: 12, warm: 0.4996898795628673, final: 0.4978352920078509, relTol: 1e-10},
	},
	{
		name:   "scalar_rk4_n48",
		why:    "rotating NS + 2 scalars, RK4, N=48=2^4*3: mixed-radix FFT, 5 fields, RK4 storage; fft-bound (74%), so a codelet or RK2-only win that taxes the general path regresses here",
		full:   geometry{n: 48, p: 2},
		tiny:   geometry{n: 12, p: 2},
		stepMS: 270, xformsPerStep: 68,
		build:  buildScalar,
		golden: golden{steps: 12, warm: 0.4996835899644719, final: 0.4977928584383773, relTol: 1e-10},
	},
	{
		name:   "xform_pencil_n128",
		why:    "forward+inverse transform pair on the 2x2 pencil engine, N=128, 4 ranks on 2 threads: no solver, out of cache, sub-communicator exchanges; exchange-bound (55%), the opposite of scalar_rk4_n48",
		full:   geometry{n: 128, p: 4, pr: 2, pc: 2},
		tiny:   geometry{n: 16, p: 4, pr: 2, pc: 2},
		stepMS: 85, xformsPerStep: 2,
		build:  buildPencil,
		golden: golden{steps: 14, warm: 186132843308.0181, final: 186132843308.01846, relTol: 1e-10},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// pair reports whether a step of the workload is a bare transform pair
// rather than a solver step.
func (w *workload) pair() bool { return w.full.pr > 0 }

func (w *workload) geometry(smoke bool) geometry {
	if smoke {
		return w.tiny
	}
	return w.full
}

// slabEngine is the pinned synchronous slab transform.
func slabEngine(c *repro.Comm, n int) *pfft.SlabReal {
	return pfft.NewSlabRealStrategy(c, n, benchWorkers, exchange.ChunkedFused)
}

func solverOptions(tr repro.Transform, scheme repro.SolverOption) []repro.SolverOption {
	return []repro.SolverOption{
		repro.WithNu(benchNu), scheme, repro.WithDealias(repro.Dealias23), repro.WithTransform(tr),
	}
}

// buildNS is the decaying Navier–Stokes step on the slab engine or on
// the batched asynchronous one; identical physics and seed on both.
func buildNS(async bool) func(*repro.Comm, buildEnv) *rankRun {
	return func(c *repro.Comm, env buildEnv) *rankRun {
		var tr repro.Transform
		var strategy string
		var closeTr func()
		fwd := spanPfftFwd
		if async {
			e := repro.NewAsync(c, env.g.n,
				repro.WithNP(asyncNP), repro.WithGranularity(repro.PerPencil), repro.WithDevices(1),
				repro.WithWorkers(benchWorkers), repro.WithExchangeStrategy(repro.ExchangeChunked))
			tr, closeTr, fwd = e, e.Close, spanCoreFwd
			// The batched engine pins one strategy for both directions.
			strategy = e.Strategy().String() + "/" + e.Strategy().String()
		} else {
			e := slabEngine(c, env.g.n)
			tr, closeTr = e, e.Close
			strategy = e.Strategy().String() + "/" + e.StrategyZY().String()
		}
		s := repro.NewSolver(c, env.g.n, solverOptions(traceTransform(tr, env.ring, fwd), repro.WithScheme(repro.RK2))...)
		s.SetRandomIsotropic(3, 0.5, env.seed)
		return &rankRun{
			step:      func() { s.Step(benchDt) },
			invariant: s.Energy,
			solver:    s,
			strategy:  strategy,
			close:     func() { s.Close(); closeTr() },
		}
	}
}

// buildScalar is rotating NS with two passive scalars under RK4 on a
// mixed-radix grid.
func buildScalar(c *repro.Comm, env buildEnv) *rankRun {
	e := slabEngine(c, env.g.n)
	opts := append(solverOptions(traceTransform(e, env.ring, spanPfftFwd), repro.WithScheme(repro.RK4)),
		repro.WithScalars(2, 1, 0.7), repro.WithRotation(1))
	s := repro.NewSolver(c, env.g.n, opts...)
	s.SetRandomIsotropic(3, 0.5, env.seed)
	for f := 3; f < s.Fields(); f++ {
		s.SetFieldBlob(f, 3, 1, env.seed+int64(f))
	}
	return &rankRun{
		step:      func() { s.Step(benchDt) },
		invariant: s.Energy,
		solver:    s,
		strategy:  e.Strategy().String() + "/" + e.StrategyZY().String(),
		close:     func() { s.Close(); e.Close() },
	}
}

// buildPencil is the bare forward+inverse transform pair on the 2×2
// pencil engine; a "step" is one pair.
func buildPencil(c *repro.Comm, env buildEnv) *rankRun {
	g, ring := env.g, env.ring
	row, col := c.CartGrid(g.pr, g.pc)
	e := pfft.NewPencilReal(col, row, g.n, benchWorkers, exchange.Both(exchange.ChunkedFused))
	phys := make([]float64, e.PhysicalLen())
	orig := make([]float64, e.PhysicalLen())
	four := make([]complex128, e.FourierLen())
	rng := rand.New(rand.NewSource(env.seed*1000003 + int64(c.Rank())))
	for i := range orig {
		orig[i] = rng.Float64() - 0.5
	}
	copy(phys, orig)
	return &rankRun{
		step: func() {
			sp := ring.begin(spanPfftFwd)
			e.PhysicalToFourier(four, phys)
			ring.end(sp)
			sp = ring.begin(spanPfftInv)
			e.FourierToPhysical(phys, four)
			ring.end(sp)
		},
		// The spectral energy Σ|û|² of the current field: one forward
		// transform outside any timed window, then the ranks' partial
		// sums added in rank order.
		invariant: func() float64 {
			e.PhysicalToFourier(four, phys)
			var s float64
			for _, v := range four {
				s += real(v)*real(v) + imag(v)*imag(v)
			}
			env.partial[c.Rank()] = s
			c.Barrier()
			var total float64
			for _, v := range env.partial {
				total += v
			}
			c.Barrier()
			return total
		},
		roundTrip: func() float64 {
			var worst float64
			for i, v := range phys {
				worst = math.Max(worst, math.Abs(v-orig[i]))
			}
			return worst
		},
		strategy: e.Strategy().String() + "/" + e.StrategyZY().String(),
		close:    e.Close,
	}
}

func (g geometry) String() string {
	if g.pr > 0 {
		return fmt.Sprintf("N=%d P=%d (%dx%d)", g.n, g.p, g.pr, g.pc)
	}
	return fmt.Sprintf("N=%d P=%d", g.n, g.p)
}
