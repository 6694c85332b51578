package pfft

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/exchange"
	"repro/internal/hw"
	"repro/internal/mpi"
	"repro/internal/pool"
	"repro/internal/tuning"
)

// NewRealTuned builds the DNS transform for decomposition d, searching
// cfg.Space with the whole-step trial protocol and persisting the
// winner in the tuning cache:
//
//   - d slab (the zero value): strategy × workers × wire-precision
//     search under the "slab" cache key. The cached point pins every
//     searched dimension, including the worker-team size; workers is
//     only the default substituted into an empty Workers dimension.
//   - d an explicit Pr×Pc pencil: the grid is fixed, the strategy and
//     worker dimensions are searched, under a per-grid cache key
//     ("pencil-PRxPC").
//   - d DecompAuto: the decomposition itself becomes a tune dimension
//     — candidates are cfg.Space.Decomps (DecompAuto entries expanded,
//     invalid entries dropped), or every valid decomposition of (N, P)
//     when the space leaves the dimension empty — under the "real"
//     cache key. Slab, when valid, is enumerated first, so the
//     max-over-ranks tie-break never abandons it for a statistical
//     wash; at P > N only pencil grids are valid and the search picks
//     among them.
//
// Trials are exchange-only (per-rank FFT work is identical across
// decompositions), timed per transpose direction and memoized per
// (engine, direction, strategy), so a candidate pair costs two trial
// runs, not four. A cache hit constructs the cached point directly
// with zero trial exchanges. The single-precision wire runs on the
// slab only, so pencil candidates ignore the wire-precision dimension.
// Collective.
func NewRealTuned(comm *mpi.Comm, n, workers int, d tuning.Decomp, cfg tuning.Config) *Engine {
	p := comm.Size()
	switch {
	case d.IsSlab():
		return tunedReal(comm, n, workers, "slab", []tuning.Decomp{d}, cfg)
	case d.IsPencil():
		if !d.Valid(n, p) {
			panic(fmt.Sprintf("pfft: decomposition %s invalid for N=%d P=%d (Pr·Pc=P, Pr|N, Pc|N, Pc ≤ N/2+1)",
				d, n, p))
		}
		return tunedReal(comm, n, workers, "pencil-"+d.String(), []tuning.Decomp{d}, cfg)
	case d.IsAuto():
		decomps := expandDecomps(cfg.Space.Decomps, n, p)
		if len(decomps) == 0 {
			panic(fmt.Sprintf("pfft: no valid decomposition for N=%d P=%d", n, p))
		}
		return tunedReal(comm, n, workers, "real", decomps, cfg)
	default:
		panic(fmt.Sprintf("pfft: malformed decomposition %+v", d))
	}
}

// expandDecomps resolves the space's decomposition dimension against
// (n, p): empty means every valid decomposition, DecompAuto entries
// expand likewise, and invalid entries are dropped.
func expandDecomps(ds []tuning.Decomp, n, p int) []tuning.Decomp {
	if len(ds) == 0 {
		return tuning.Decompositions(n, p)
	}
	var out []tuning.Decomp
	for _, d := range ds {
		cands := []tuning.Decomp{d}
		if d.IsAuto() {
			cands = tuning.Decompositions(n, p)
		}
		for _, e := range cands {
			if e.Valid(n, p) && !slices.Contains(out, e) {
				out = append(out, e)
			}
		}
	}
	return out
}

// realPoints enumerates cfg.Space over an explicit decomposition list:
// NP and PerSlab are foreign dimensions here (canonicalized away), and
// pencil points collapse the wire-precision dimension (the
// single-precision wire runs on the slab only). Space tie-break order
// is kept.
func realPoints(space tuning.Space, workers int, decomps []tuning.Decomp) []tuning.Point {
	space.Decomps = decomps
	seen := map[tuning.Point]bool{}
	var out []tuning.Point
	for _, pt := range space.Points(0, workers) {
		pt.NP, pt.PerSlab = 0, false
		if pt.Decomp().IsPencil() {
			pt.Single = false
		}
		if !seen[pt] {
			seen[pt] = true
			out = append(out, pt)
		}
	}
	return out
}

// newGridEngine constructs the engine on decomposition d of comm with
// pair pinned: the slab is comm itself as the one column, a pencil grid
// its CartGrid communicators. Collective.
func newGridEngine(comm *mpi.Comm, n int, d tuning.Decomp, workers int, single bool, pair exchange.Pair) *Engine {
	commY, commZ := comm, (*mpi.Comm)(nil)
	if d.IsPencil() {
		commZ, commY = comm.CartGrid(d.Pr, d.Pc)
	}
	return newEngine(commY, commZ, n, workers, pair, nil, single)
}

// tunedReal is the one strategy search of the package: the
// decomposition × strategy × workers × wire-precision trial loop under
// the given cache key. Every rank enumerates the same candidate list,
// builds trial engines lazily in candidate order (keeping the
// collective construction sequence symmetric), times each (engine,
// direction, strategy) once with the barrier-fenced best-of-k protocol
// and scores a candidate pair as the sum of its two direction times —
// so the y→z × z→y cross-product costs 2×|strategies| trial runs per
// engine, not |strategies|² — and resolves the table through the
// max-over-ranks protocol (ties to the earlier candidate, so
// slab/Staged/Staged is never beaten by a statistical wash). A cache
// hit constructs the cached point directly with zero trial exchanges;
// a hit whose decomposition is foreign to this key is a miss.
// Collective.
func tunedReal(comm *mpi.Comm, n, workers int, engineKey string, decomps []tuning.Decomp, cfg tuning.Config) *Engine {
	key := tuning.Key{
		Engine:   engineKey,
		N:        n,
		P:        comm.Size(),
		Maxprocs: runtime.GOMAXPROCS(0),
		Machine:  hw.Fingerprint(),
	}
	if pt, ok := cfg.Lookup(comm, key); ok && slices.Contains(decomps, pt.Decomp()) {
		return newGridEngine(comm, n, pt.Decomp(), pt.Workers, pt.Single, exchange.Pair{YZ: pt.Strategy, ZY: pt.StrategyZY})
	}
	pts := realPoints(cfg.Space, workers, decomps)
	type group struct {
		d       tuning.Decomp
		workers int
		single  bool
	}
	type trialKey struct {
		g  group
		d  exchange.Dir
		st exchange.Strategy
	}
	engines := map[group]*Engine{}
	trials := map[group][]complex128{}
	times := map[trialKey]float64{}
	mine := make([]float64, len(pts))
	for i, pt := range pts {
		g := group{pt.Decomp(), pt.Workers, pt.Single}
		eng := engines[g]
		if eng == nil {
			eng = newGridEngine(comm, n, g.d, g.workers, g.single, exchange.Both(exchange.Staged))
			engines[g] = eng
			trials[g] = pool.GetComplex(eng.FourierLen())
		}
		for d, st := range [2]exchange.Strategy{exchange.YZ: pt.Strategy, exchange.ZY: pt.StrategyZY} {
			k := trialKey{g, exchange.Dir(d), st}
			if _, ok := times[k]; !ok {
				times[k] = tuning.TrialBest(comm, tuning.Trials, func() { eng.runTrial(k.d, st, trials[g]) })
			}
			mine[i] += times[k]
		}
	}
	win, cost := tuning.ResolveTimes(comm, mine)
	pt := pts[win]
	cfg.Store(comm, key, pt, cost)
	keep := engines[group{pt.Decomp(), pt.Workers, pt.Single}]
	for g, e := range engines {
		pool.PutComplex(trials[g])
		if e != keep {
			e.Close()
		}
	}
	keep.setStrategies(exchange.Pair{YZ: pt.Strategy, ZY: pt.StrategyZY})
	return keep
}
