// Package tuning is the whole-step autotuner: instead of timing only
// the transpose-exchange strategy, a tuned constructor searches a Space
// over every knob the paper's production runs tune together — exchange
// strategy, transfer granularity (per-pencil vs per-slab), pencil count,
// worker team size, wire precision and decomposition — with a
// barrier-fenced best-of-k, max-over-ranks resolve protocol, and
// persists the winner in a JSON tuning cache keyed by (engine, N, P,
// GOMAXPROCS, machine fingerprint) so production restarts skip the
// trials entirely.
//
// Tune is the one trial loop, for every engine: the key and collective
// cache lookup, enumeration, the trial engines, the timing, the
// resolve, the store and the construction of the winner. A tuned
// constructor (pfft.NewRealTuned, pfft.NewAsyncSlabRealTuned) hands it
// a Target: its constructor, an exchange-only trial body and, where the
// engine lacks dimensions, the rule that collapses a Point onto its
// sub-space. The package also holds the search space (Space, Point,
// Decomp) and the persistent cache.
package tuning

import "repro/internal/exchange"

// Point is one configuration in the whole-step tune space. Engines
// search the sub-space meaningful to them (a Pc > 1 grid runs at one
// plane group and one exchange per slab, and its points carry NP 0 and
// no PerSlab; the slab pins them to one group and one exchange); the
// unused dimensions keep their defaults and ride along unchanged.
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
	// PerSlab selects one whole-slab exchange over per-pencil
	// exchanges (the engine's Granularity).
	PerSlab bool `json:"per_slab"`
	// NP is the pencil count per slab (one-column points only).
	NP int `json:"np"`
	// Workers is the per-rank worker-team size.
	Workers int `json:"workers"`
	// Single stages exchange payloads through complex64 buffers,
	// halving the bytes on the wire for ~1e-7 relative rounding.
	Single bool `json:"single"`
	// Pr and Pc record the winning decomposition: zero means slab,
	// otherwise the field is pencil-decomposed over a Pr×Pc process
	// grid (Pr row groups over y/z, Pc column groups over z/x).
	Pr int `json:"pr,omitempty"`
	Pc int `json:"pc,omitempty"`
}

// Decomp returns the point's decomposition dimension.
func (pt Point) Decomp() Decomp { return Decomp{Pr: pt.Pr, Pc: pt.Pc} }

// Space is the cartesian tune space: every combination of the listed
// dimension values is a candidate Point. Empty dimensions default to
// the singleton zero point of that dimension (Strategies to the
// concrete strategy list), so the zero Space searches exchange
// strategies only — exactly the PR-5 autotuner.
type Space struct {
	// Strategies is the candidate list for the yz direction. When
	// StrategiesZY is empty it serves both directions and the two are
	// tuned as a cross product of the same list.
	Strategies []exchange.Strategy
	// StrategiesZY is the candidate list for the zy direction.
	StrategiesZY []exchange.Strategy
	PerSlab      []bool
	NP           []int
	Workers      []int
	Single       []bool
	// Decomps lists candidate decompositions (DecompSlab and/or
	// pencil grids). Empty means slab only — engines that cannot run
	// pencil-decomposed never see a pencil point. Use
	// Decompositions(n, p) for every valid layout.
	Decomps []Decomp
}

// withDefaults fills empty dimensions: concrete strategies, and the
// provided engine defaults for the scalar dimensions.
func (s Space) withDefaults(np, workers int) Space {
	if len(s.Strategies) == 0 {
		s.Strategies = exchange.Concrete
	}
	if len(s.StrategiesZY) == 0 {
		s.StrategiesZY = s.Strategies
	}
	if len(s.PerSlab) == 0 {
		s.PerSlab = []bool{false}
	}
	if len(s.NP) == 0 {
		s.NP = []int{np}
	}
	if len(s.Workers) == 0 {
		s.Workers = []int{workers}
	}
	if len(s.Single) == 0 {
		s.Single = []bool{false}
	}
	if len(s.Decomps) == 0 {
		s.Decomps = []Decomp{DecompSlab}
	}
	return s
}

// Points enumerates the space in deterministic order, yz strategies
// varying fastest, then zy strategies, with decompositions slowest.
// The resolve breaks ties toward the earlier point, so listing the safe
// defaults first (slab, Staged, double precision) keeps the tuner
// conservative under a statistical wash. np and workers are the engine
// defaults substituted into empty dimensions.
func (s Space) Points(np, workers int) []Point {
	s = s.withDefaults(np, workers)
	var pts []Point
	for _, d := range s.Decomps {
		for _, sg := range s.Single {
			for _, w := range s.Workers {
				for _, n := range s.NP {
					for _, ps := range s.PerSlab {
						for _, stz := range s.StrategiesZY {
							for _, st := range s.Strategies {
								pts = append(pts, Point{
									Strategy: st, StrategyZY: stz,
									PerSlab: ps, NP: n,
									Workers: w, Single: sg,
									Pr: d.Pr, Pc: d.Pc,
								})
							}
						}
					}
				}
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
