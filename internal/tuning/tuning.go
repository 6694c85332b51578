// Package tuning is the exchange autotuner: a tuned constructor
// searches a Space of transpose-exchange strategy pairs (one strategy
// per direction) and, for the real-field transform, decompositions —
// the dimensions an exchange-only trial can measure — with a
// barrier-fenced best-of-k, max-over-ranks resolve protocol, and
// persists the winner in a JSON tuning cache keyed by the engine, its
// options, N, P, GOMAXPROCS and the machine fingerprint, so production
// restarts skip the trials entirely. Everything else about the engine
// (pencil count, granularity, worker team, wire precision) is the
// caller's input, never a tuning outcome.
//
// Tune is the one trial loop, for every engine: the key and collective
// cache lookup, enumeration, the trial engines, the timing, the
// resolve, the store and the construction of the winner. A tuned
// constructor (pfft.NewRealTuned, pfft.NewAsyncSlabRealTuned) hands it
// a Target: its cache key, its constructor and an exchange-only trial
// body. The package also holds the search space (Space, Point, Decomp)
// and the persistent cache.
package tuning

import "repro/internal/exchange"

// Point is one configuration in the tune space: a strategy pair and a
// decomposition. The engine's other options come from its caller and
// are part of the cache key, not of the point.
type Point struct {
	// Strategy is the transpose-exchange strategy for the yz
	// (Fourier→physical) direction (always concrete: Auto is a
	// request to search, AT changes the answer and is never a tuning
	// point).
	Strategy exchange.Strategy `json:"strategy"`
	// StrategyZY is the strategy for the zy (physical→Fourier)
	// direction. The two transposes move the same bytes through
	// different access patterns, so their winners can differ.
	StrategyZY exchange.Strategy `json:"strategy_zy"`
	// Pr and Pc record the winning decomposition: zero means slab,
	// otherwise the field is pencil-decomposed over a Pr×Pc process
	// grid (Pr row groups over y/z, Pc column groups over z/x).
	Pr int `json:"pr,omitempty"`
	Pc int `json:"pc,omitempty"`
}

// Decomp returns the point's decomposition dimension.
func (pt Point) Decomp() Decomp { return Decomp{Pr: pt.Pr, Pc: pt.Pc} }

// Space is the cartesian tune space: every combination of the listed
// dimension values is a candidate Point. Empty Strategies default to
// the concrete strategy list, and empty Decomps to slab, so the zero
// Space searches the exchange strategies of each direction.
type Space struct {
	// Strategies is the candidate list for the yz direction. When
	// StrategiesZY is empty it serves both directions and the two are
	// tuned as a cross product of the same list.
	Strategies []exchange.Strategy
	// StrategiesZY is the candidate list for the zy direction.
	StrategiesZY []exchange.Strategy
	// Decomps lists candidate decompositions (DecompSlab and/or
	// pencil grids). Empty means slab only — engines that cannot run
	// pencil-decomposed never see a pencil point. Use
	// Decompositions(n, p) for every valid layout.
	Decomps []Decomp
}

// Points enumerates the space in deterministic order, yz strategies
// varying fastest, then zy strategies, with decompositions slowest.
// The resolve breaks ties toward the earlier point, so listing the safe
// defaults first (slab, Fused) keeps the tuner conservative under a
// statistical wash.
func (s Space) Points() []Point {
	if len(s.Strategies) == 0 {
		s.Strategies = exchange.Concrete
	}
	if len(s.StrategiesZY) == 0 {
		s.StrategiesZY = s.Strategies
	}
	if len(s.Decomps) == 0 {
		s.Decomps = []Decomp{DecompSlab}
	}
	var pts []Point
	for _, d := range s.Decomps {
		for _, stz := range s.StrategiesZY {
			for _, st := range s.Strategies {
				pts = append(pts, Point{Strategy: st, StrategyZY: stz, Pr: d.Pr, Pc: d.Pc})
			}
		}
	}
	return pts
}

// Config carries a tuned constructor's inputs: the space to search and
// the persistent cache consulted before (and updated after) the
// trials. A nil Cache tunes live on every construction; a zero Space
// searches exchange strategies only.
type Config struct {
	Space Space
	Cache *Cache
}
