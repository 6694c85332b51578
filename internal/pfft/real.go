package pfft

import (
	"fmt"

	"repro/internal/exchange"
	"repro/internal/mpi"
	"repro/internal/tuning"
)

// NewRealTuned builds the DNS transform for decomposition d through
// tuning.Tune, searching cfg.Space and persisting the winner in the
// tuning cache:
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
// A trial is runTrial on the tuner's pooled slab: exchange-only, since
// per-rank FFT work is identical across decompositions. The
// single-precision wire runs on the slab only, so pencil candidates
// collapse the wire-precision dimension; NP and PerSlab are the batched
// engine's and collapse everywhere. Collective.
func NewRealTuned(comm *mpi.Comm, n, workers int, d tuning.Decomp, cfg tuning.Config) *Engine {
	p := comm.Size()
	engine := "slab"
	switch {
	case d.IsSlab():
		cfg.Space.Decomps = []tuning.Decomp{d}
	case d.IsPencil():
		if !d.Valid(n, p) {
			panic(fmt.Sprintf("pfft: decomposition %s invalid for N=%d P=%d (Pr·Pc=P, Pr|N, Pc|N, Pc ≤ N/2+1)",
				d, n, p))
		}
		engine, cfg.Space.Decomps = "pencil-"+d.String(), []tuning.Decomp{d}
	case d.IsAuto():
		engine, cfg.Space.Decomps = "real", expandDecomps(cfg.Space.Decomps, n, p)
		if len(cfg.Space.Decomps) == 0 {
			panic(fmt.Sprintf("pfft: no valid decomposition for N=%d P=%d", n, p))
		}
	default:
		panic(fmt.Sprintf("pfft: malformed decomposition %+v", d))
	}
	return tuning.Tune(comm, cfg, tuning.Target[*Engine]{
		Engine:  engine,
		N:       n,
		Workers: workers,
		Collapse: func(pt tuning.Point) tuning.Point {
			pt.NP, pt.PerSlab = 0, false
			if pt.Decomp().IsPencil() {
				pt.Single = false
			}
			return pt
		},
		// The slab is comm itself as the one column, a pencil grid its
		// CartGrid communicators.
		Build: func(pt tuning.Point) *Engine {
			commY, commZ := comm, (*mpi.Comm)(nil)
			if pt.Decomp().IsPencil() {
				commZ, commY = comm.CartGrid(pt.Pr, pt.Pc)
			}
			return newEngine(commY, commZ, n, pt.Workers, exchange.Pair{YZ: pt.Strategy, ZY: pt.StrategyZY}, nil, pt.Single)
		},
		Trial: (*Engine).runTrial,
	})
}

// expandDecomps resolves the space's decomposition dimension against
// (n, p): empty means every valid decomposition, DecompAuto entries
// expand likewise, and invalid entries are dropped. A decomposition
// listed twice yields duplicate points, which tuning.Tune drops.
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
			if e.Valid(n, p) {
				out = append(out, e)
			}
		}
	}
	return out
}
