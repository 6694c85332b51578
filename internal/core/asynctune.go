package core

import (
	"fmt"

	"repro/internal/exchange"
	"repro/internal/mpi"
	"repro/internal/tuning"
)

// NewAsyncSlabRealTuned builds the asynchronous engine through
// tuning.Tune: it searches every knob the paper's production runs tune
// together — exchange strategy, transfer granularity (configuration A/B
// vs C), pencil count, worker-team size and wire precision — under the
// "async" cache key, and builds the collectively-agreed winner. A warm
// cache builds the cached point directly with zero trial exchanges (the
// tune.trials counter stays flat). Empty space dimensions default
// conservatively: concrete strategies × both granularities at the
// option-given np, workers and precision, so the default search never
// changes the numerics, only the data path. Exchange: exchange.Auto is
// the same search with every dimension but the strategy pinned.
//
// The engine has one exchange knob driving both transpose directions,
// so a point collapses onto StrategyZY = Strategy, and a trial is
// exchange on the tuner's pooled slab with nothing started from the
// pipeline. The engine is slab-only: a space that lists a pencil grid
// is a caller error (the decomposition dimension is pfft.NewRealTuned's).
// Collective.
func NewAsyncSlabRealTuned(comm *mpi.Comm, n int, opt Options, cfg tuning.Config) *AsyncSlabReal {
	if opt.Exchange == exchange.AT {
		panic("core: the asynchrony-tolerant exchange is never autotuned; pin Options explicitly")
	}
	for _, d := range cfg.Space.Decomps {
		if !d.IsSlab() {
			panic(fmt.Sprintf("core: the asynchronous engine is slab-only, tune space lists decomposition %s; use pfft.NewRealTuned for pencil grids", d))
		}
	}
	np := opt.NP
	if np == 0 {
		np = 3
	}
	workers := opt.Workers
	if workers == 0 {
		workers = 1
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
	return tuning.Tune(comm, cfg, tuning.Target[*AsyncSlabReal]{
		Engine:  "async",
		N:       n,
		NP:      np,
		Workers: workers,
		Collapse: func(pt tuning.Point) tuning.Point {
			pt.StrategyZY = pt.Strategy
			return pt
		},
		Build: func(pt tuning.Point) *AsyncSlabReal {
			return newAsyncSlabReal(comm, n, applyPoint(opt, pt))
		},
		Trial: func(a *AsyncSlabReal, d exchange.Dir, st exchange.Strategy, four []complex128) {
			a.four = four
			a.exchange(d, st)
			a.four = nil
		},
	})
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
