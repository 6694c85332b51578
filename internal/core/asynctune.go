package core

import (
	"fmt"
	"runtime"

	"repro/internal/exchange"
	"repro/internal/hw"
	"repro/internal/mpi"
	"repro/internal/tuning"
)

// Whole-step autotuning for the asynchronous engine: the tuner
// searches every knob the paper's production runs tune together —
// exchange strategy, transfer granularity (configuration A/B vs C),
// pencil count, worker-team size and wire precision. Exchange:
// exchange.Auto is the same search with every dimension but the
// strategy pinned. Each distinct (granularity, np, workers, precision)
// group needs its own engine (buffers and plans differ), so the tuner
// walks the candidate list in space order — strategies varying fastest
// — building one trial engine per group, timing its strategies with
// the shared barrier-fenced best-of-k protocol, and closing it before
// the next group claims the pooled buffers. A winner in the last group
// keeps that group's engine.

// NewAsyncSlabRealTuned builds the asynchronous engine by searching
// cfg.Space with the collective trial protocol and constructing the
// collectively-agreed winner. When cfg.Cache holds a decision for this
// (N, P, GOMAXPROCS, machine) key the trials are skipped entirely and
// the cached point is constructed directly — a warm production restart
// performs zero trial exchanges (the tune.trials counter stays flat).
// Empty space dimensions default conservatively: concrete strategies ×
// both granularities at the option-given np, workers and precision, so
// the default search never changes the numerics, only the data path.
// Collective.
func NewAsyncSlabRealTuned(comm *mpi.Comm, n int, opt Options, cfg tuning.Config) *AsyncSlabReal {
	if opt.Exchange == exchange.AT {
		panic("core: the asynchrony-tolerant exchange is never autotuned; pin Options explicitly")
	}
	np := opt.NP
	if np == 0 {
		np = 3
	}
	workers := opt.Workers
	if workers == 0 {
		workers = 1
	}
	key := tuning.Key{
		Engine:   "async",
		N:        n,
		P:        comm.Size(),
		Maxprocs: runtime.GOMAXPROCS(0),
		Machine:  hw.Fingerprint(),
	}
	if pt, ok := cfg.Lookup(comm, key); ok {
		return newAsyncSlabReal(comm, n, applyPoint(opt, pt))
	}
	space := cfg.Space
	if len(space.PerSlab) == 0 {
		// Search both granularities, the option's own first so the
		// tie-break keeps the caller's configuration under a wash.
		cur := opt.Granularity == PerSlab
		space.PerSlab = []bool{cur, !cur}
	}
	if len(space.Single) == 0 {
		// Precision changes the answer (~1e-7 rounding), so it is only
		// searched when the space asks for it explicitly.
		space.Single = []bool{opt.SingleComm}
	}
	pts := asyncPoints(space, np, workers)
	mine := make([]float64, len(pts))
	var (
		eng *AsyncSlabReal
		cur tuning.Point
	)
	for i, pt := range pts {
		if eng == nil || !sameEngineGroup(cur, pt) {
			if eng != nil {
				eng.Close()
			}
			eng = newAsyncSlabReal(comm, n, applyPoint(opt, pt))
			cur = pt
		}
		st := pt.Strategy
		mine[i] = tuning.TrialBest(comm, tuning.Trials, func() { eng.exchange(exchange.YZ, st, false) })
	}
	win, cost := tuning.ResolveTimes(comm, mine)
	pt := pts[win]
	cfg.Store(comm, key, pt, cost)
	if sameEngineGroup(cur, pt) {
		eng.setStrategy(pt.Strategy)
		return eng
	}
	eng.Close()
	return newAsyncSlabReal(comm, n, applyPoint(opt, pt))
}

// asyncPoints enumerates the async engine's sub-space. The engine has
// one exchange knob driving both transpose directions and runs on the
// slab layout only, so the per-direction and decomposition dimensions
// collapse (StrategyZY := Strategy, Pr = Pc = 0) and the collapsed
// list is deduplicated — the trial count stays one per distinct engine
// configuration, not one per foreign-dimension combination. A space
// that asks for pencil grids explicitly is a caller error: the
// decomposition dimension belongs to pfft.NewRealTuned.
func asyncPoints(space tuning.Space, np, workers int) []tuning.Point {
	for _, d := range space.Decomps {
		if !d.IsSlab() {
			panic(fmt.Sprintf("core: the asynchronous engine is slab-only, tune space lists decomposition %s; use pfft.NewRealTuned for pencil grids", d))
		}
	}
	seen := map[tuning.Point]bool{}
	var out []tuning.Point
	for _, pt := range space.Points(np, workers) {
		pt.StrategyZY = pt.Strategy
		pt.Pr, pt.Pc = 0, 0
		if seen[pt] {
			continue
		}
		seen[pt] = true
		out = append(out, pt)
	}
	return out
}

// applyPoint pins every tuned dimension of pt onto opt.
func applyPoint(opt Options, pt tuning.Point) Options {
	opt.Exchange = pt.Strategy
	if pt.PerSlab {
		opt.Granularity = PerSlab
	} else {
		opt.Granularity = PerPencil
	}
	opt.NP = pt.NP
	opt.Workers = pt.Workers
	opt.SingleComm = pt.Single
	return opt
}

// sameEngineGroup reports whether two points can share one trial
// engine: every dimension but the strategy must match.
func sameEngineGroup(a, b tuning.Point) bool {
	return a.PerSlab == b.PerSlab && a.NP == b.NP &&
		a.Workers == b.Workers && a.Single == b.Single
}
