package pfft

import (
	"fmt"

	"repro/internal/exchange"
	"repro/internal/mpi"
	"repro/internal/tuning"
)

// NewRealTuned builds the DNS transform for decomposition d through
// tuning.Tune, at np 1, one exchange per slab, one device and the
// given worker team, searching cfg.Space's strategy pairs and
// persisting the winner in the tuning cache:
//
//   - d slab (the zero value): NewAsyncSlabRealTuned at the slab's
//     options, under the "slab" cache key.
//   - d an explicit Pr×Pc pencil: the grid is fixed and the strategy
//     pairs are searched on it, under a per-grid cache key
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
// A one-column candidate (the slab, or an explicit P×1) runs over
// comm, a Pc > 1 candidate over comm's CartGrid communicators. A trial
// is the candidate's runTrial on the tuner's pooled slab: exchange-only,
// since per-rank FFT work is identical across decompositions.
// Collective.
func NewRealTuned(comm *mpi.Comm, n, workers int, d tuning.Decomp, cfg tuning.Config) *SlabReal {
	p := comm.Size()
	engine := "real"
	switch {
	case d.IsSlab():
		return NewAsyncSlabRealTuned(comm, n, slabOptions(workers), cfg)
	case d.IsPencil():
		if !d.Valid(n, p) {
			panic(fmt.Sprintf("pfft: decomposition %s invalid for N=%d P=%d (Pr·Pc=P, Pr|N, Pc|N, Pc ≤ N/2+1)",
				d, n, p))
		}
		engine, cfg.Space.Decomps = "pencil-"+d.String(), []tuning.Decomp{d}
	case d.IsAuto():
		cfg.Space.Decomps = expandDecomps(cfg.Space.Decomps, n, p)
		if len(cfg.Space.Decomps) == 0 {
			panic(fmt.Sprintf("pfft: no valid decomposition for N=%d P=%d", n, p))
		}
	default:
		panic(fmt.Sprintf("pfft: malformed decomposition %+v", d))
	}
	return tuning.Tune(comm, cfg, target(comm, n, engine, slabOptions(workers)))
}

// NewAsyncSlabRealTuned builds the slab-decomposed engine at opt
// through tuning.Tune: it times every strategy pair of cfg.Space on an
// engine built with the caller's pencil count, granularity, devices,
// worker team and wire precision, and builds the collectively-agreed
// winner with exactly those options. The options are part of the
// "slab" cache key, so a warm cache builds the cached pair directly
// with zero trial exchanges (the tune.trials counter stays flat) and
// never replays a pair timed under other options. The tuner chooses the
// strategy, so opt.Exchange must be exchange.Auto: a pinned strategy
// (AT included) is a caller error, as is a space that lists a pencil
// grid (the decomposition dimension is NewRealTuned's). Collective.
func NewAsyncSlabRealTuned(comm *mpi.Comm, n int, opt Options, cfg tuning.Config) *SlabReal {
	switch opt.Exchange {
	case exchange.Auto:
	case exchange.AT:
		panic("pfft: the asynchrony-tolerant exchange is never autotuned; pass exchange.Auto, or pin it with NewAsyncSlabReal")
	default:
		panic(fmt.Sprintf("pfft: exchange %s is pinned, but the tuner chooses the strategy; pass exchange.Auto, or pin it with NewAsyncSlabReal", opt.Exchange))
	}
	for _, d := range cfg.Space.Decomps {
		if !d.IsSlab() {
			panic(fmt.Sprintf("pfft: the batched engine is slab-only, tune space lists decomposition %s; use NewRealTuned for pencil grids", d))
		}
	}
	return tuning.Tune(comm, cfg, target(comm, n, "slab", opt))
}

// target is the tuning.Target of the engine at opt under cache key
// engine: a point pins the strategy of each direction and the
// decomposition, opt supplies everything else. The program runs over
// comm itself, or, for a point on a Pc > 1 grid (NewRealTuned's), over
// comm's CartGrid communicators at one plane group and one exchange
// per slab.
func target(comm *mpi.Comm, n int, engine string, opt Options) tuning.Target[*SlabReal] {
	opt = opt.withDefaults()
	return tuning.Target[*SlabReal]{
		Key: tuning.Key{
			Engine: engine, N: n,
			NP: opt.NP, PerSlab: opt.Granularity == PerSlab, NGPU: opt.NGPU,
			Workers: opt.Workers, Single: opt.SingleComm,
		},
		Build: func(pt tuning.Point) *SlabReal {
			o := opt
			commY, commZ := comm, (*mpi.Comm)(nil)
			if pt.Pc > 1 {
				commZ, commY = comm.CartGrid(pt.Pr, pt.Pc)
				o.NP, o.Granularity = 1, PerSlab
			}
			return newSlabReal(commY, commZ, n, o, exchange.Pair{YZ: pt.Strategy, ZY: pt.StrategyZY})
		},
		Trial: (*SlabReal).runTrial,
	}
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
