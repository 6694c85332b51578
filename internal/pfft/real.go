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
//     search under the "slab" cache key (NewAsyncSlabRealTuned at the
//     slab's options). The cached point
//     pins every searched dimension, including the worker-team size;
//     workers is only the default substituted into an empty Workers
//     dimension.
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
// Every candidate builds the program at np 1, one exchange per slab,
// one device: a one-column candidate (the slab, or an explicit P×1) over
// comm, a Pc > 1 candidate over comm's CartGrid communicators. A trial
// is the candidate's runTrial on the tuner's pooled slab: exchange-only,
// since per-rank FFT work is identical across decompositions. The
// single-precision wire runs on one column only, so Pc > 1 candidates
// collapse the wire-precision dimension, and their points carry no
// plane-group dimensions (NP 0). Collective.
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
	pinSlab(&cfg)
	t := target(comm, n, engine, slabOptions(workers))
	t.Collapse = func(pt tuning.Point) tuning.Point {
		if pt.Pc > 1 {
			pt.NP, pt.PerSlab, pt.Single = 0, false, false
		}
		return pt
	}
	return tuning.Tune(comm, cfg, t)
}

// pinSlab pins the space's pencil dimensions to the slab's: one plane
// group, one exchange per slab.
func pinSlab(cfg *tuning.Config) {
	cfg.Space.NP, cfg.Space.PerSlab = []int{1}, []bool{true}
}

// NewAsyncSlabRealTuned builds the batched pipeline through
// tuning.Tune: it searches every knob the paper's production runs tune
// together — exchange strategy per direction, transfer granularity
// (configuration A/B vs C), pencil count, worker-team size and wire
// precision — under the "async" cache key, and builds the
// collectively-agreed winner. A warm cache builds the cached point
// directly with zero trial exchanges (the tune.trials counter stays
// flat). Empty space dimensions default conservatively: concrete
// strategies × both granularities at the option-given np, workers and
// precision, so the default search never changes the numerics, only
// the data path. Exchange: exchange.Auto is the same search with every
// dimension but the strategies pinned.
//
// Options at the slab's — np 1, one exchange per slab, one device —
// are the slab's search: the space's NP and PerSlab
// dimensions are pinned to them and the winner is stored under the
// "slab" cache key, so a slab winner never replays on the batched
// pipeline. The engine is slab-decomposed: a space that lists a pencil
// grid is a caller error (the decomposition dimension is
// NewRealTuned's). Collective.
func NewAsyncSlabRealTuned(comm *mpi.Comm, n int, opt Options, cfg tuning.Config) *SlabReal {
	if opt.Exchange == exchange.AT {
		panic("pfft: the asynchrony-tolerant exchange is never autotuned; pin Options explicitly")
	}
	for _, d := range cfg.Space.Decomps {
		if !d.IsSlab() {
			panic(fmt.Sprintf("pfft: the batched engine is slab-only, tune space lists decomposition %s; use NewRealTuned for pencil grids", d))
		}
	}
	if opt.NP == 0 {
		opt.NP = 3
	}
	if opt.Workers == 0 {
		opt.Workers = 1
	}
	engine := "async"
	if opt.NP == 1 && opt.Granularity == PerSlab && opt.NGPU <= 1 {
		engine = "slab"
		pinSlab(&cfg)
	}
	if len(cfg.Space.PerSlab) == 0 {
		// Search both granularities, the option's own first so the
		// tie-break keeps the caller's configuration under a wash.
		cur := opt.Granularity == PerSlab
		cfg.Space.PerSlab = []bool{cur, !cur}
	}
	if len(cfg.Space.Single) == 0 {
		// Precision changes the answer (~1e-7 rounding), so it is only
		// searched when the space asks for it explicitly.
		cfg.Space.Single = []bool{opt.SingleComm}
	}
	return tuning.Tune(comm, cfg, target(comm, n, engine, opt))
}

// target is the tuning.Target of the engine under cache key engine:
// a point pins the strategy of each direction, the granularity, pencil
// count, worker-team size and wire precision over opt, which supplies
// the rest (devices) and the defaults of the space's empty NP and
// Workers dimensions. The program runs over comm itself, or, for a
// point on a Pc > 1 grid (NewRealTuned's), over comm's CartGrid
// communicators at one plane group and one exchange per slab.
func target(comm *mpi.Comm, n int, engine string, opt Options) tuning.Target[*SlabReal] {
	return tuning.Target[*SlabReal]{
		Engine:  engine,
		N:       n,
		NP:      opt.NP,
		Workers: opt.Workers,
		Build: func(pt tuning.Point) *SlabReal {
			o := opt
			o.Granularity = PerPencil
			if pt.PerSlab {
				o.Granularity = PerSlab
			}
			o.NP, o.Workers, o.SingleComm = pt.NP, pt.Workers, pt.Single
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
