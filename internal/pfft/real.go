package pfft

import (
	"fmt"

	"repro/internal/exchange"
	"repro/internal/mpi"
	"repro/internal/tuning"
)

// Real is a real-field transform pair on any decomposition, what
// NewRealTuned returns: SlabReal on the slab (and on an explicit P×1
// grid), Engine on a Pc > 1 pencil grid. Both produce bitwise-identical
// results on the same field.
type Real interface {
	// FourierToPhysical is the inverse transform, 1/N³ normalized; four
	// is consumed as scratch.
	FourierToPhysical(phys []float64, four []complex128)
	// PhysicalToFourier is the unnormalized forward transform.
	PhysicalToFourier(four []complex128, phys []float64)
	// Truncate band-limits the pair to |k_i| ≤ kmax (see
	// spectral.Transform).
	Truncate(kmax int)
	FourierLen() int
	PhysicalLen() int
	// Decomp reports the decomposition the transform runs on.
	Decomp() tuning.Decomp
	// StrategyPair reports the pinned strategies of both directions.
	StrategyPair() exchange.Pair
	Close()
	// runTrial is the tuner's exchange-only trial body.
	runTrial(d exchange.Dir, st exchange.Strategy, four []complex128)
}

// NewRealTuned builds the DNS transform for decomposition d through
// tuning.Tune, searching cfg.Space and persisting the winner in the
// tuning cache:
//
//   - d slab (the zero value): strategy × workers × wire-precision
//     search under the "slab" cache key (NewAsyncSlabRealTuned at the
//     slab constructors' options). The cached point
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
// A one-column candidate (the slab, or an explicit P×1) builds
// SlabReal at np 1, one exchange per slab, one device; a Pc > 1
// candidate builds Engine. A trial is the candidate's runTrial on the
// tuner's pooled slab: exchange-only, since per-rank FFT work is
// identical across decompositions. The single-precision wire runs on
// one column only, so Pc > 1 candidates collapse the wire-precision
// dimension. Collective.
func NewRealTuned(comm *mpi.Comm, n, workers int, d tuning.Decomp, cfg tuning.Config) Real {
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
	slab := oneColumn(comm, n, engine, slabOptions(workers))
	return tuning.Tune(comm, cfg, tuning.Target[Real]{
		Engine:  engine,
		N:       n,
		NP:      slab.NP,
		Workers: workers,
		Collapse: func(pt tuning.Point) tuning.Point {
			if pt.Pc > 1 {
				pt.NP, pt.PerSlab, pt.Single = 0, false, false
			}
			return pt
		},
		// The one column is comm itself, a pencil grid its CartGrid
		// communicators.
		Build: func(pt tuning.Point) Real {
			if pt.Pc <= 1 {
				return slab.Build(pt)
			}
			commZ, commY := comm.CartGrid(pt.Pr, pt.Pc)
			return newEngine(commY, commZ, n, pt.Workers, exchange.Pair{YZ: pt.Strategy, ZY: pt.StrategyZY})
		},
		Trial: func(e Real, d exchange.Dir, st exchange.Strategy, four []complex128) { e.runTrial(d, st, four) },
	})
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
// are the slab constructors' search: the space's NP and PerSlab
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
	return tuning.Tune(comm, cfg, oneColumn(comm, n, engine, opt))
}

// oneColumn is the tuning.Target of the one-column engine under cache
// key engine: a point pins the strategy of each direction, the
// granularity, pencil count, worker-team size and wire precision over
// opt, which supplies the rest (devices) and the defaults of the
// space's empty NP and Workers dimensions.
func oneColumn(comm *mpi.Comm, n int, engine string, opt Options) tuning.Target[*SlabReal] {
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
			return newSlabReal(comm, n, o, exchange.Pair{YZ: pt.Strategy, ZY: pt.StrategyZY})
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
