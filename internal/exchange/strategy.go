// Package exchange is the transpose-exchange of the code base: the
// one Stage every transform engine runs its pack → all-to-all → unpack
// through (stage.go) and the strategy space a stage executes under
// (the tuner that picks between its points is internal/tuning's). The
// strategies are the software analogue of the paper's §4 data-movement
// variants:
//
//   - Staged: pack into per-destination blocks, exchange blocks
//     through the persistent all-to-all, unpack into the destination
//     layout — three full memory passes (the cudaMemcpy2DAsync
//     staging path).
//   - Fused: one parallel pass of strided gathers reading directly
//     from peer slab memory into the local destination layout — the
//     zero-copy kernels of §4 whose SM threads read pinned host
//     memory in place, with pack, wire copy and unpack deleted.
//   - ChunkedFused: the fused gather split into P pairwise-exchange
//     rounds (rank r reads peer (r+k)%P in round k), so at any moment
//     each source slab is being read by one rank's worker team only —
//     the many-memcpyAsync variant, trading a little dispatch for
//     less contention on the source slab.
//
// The paper's §5 configuration A/B/C study shows the winning strategy
// depends on (N, P, workers) and must be chosen, not hard-coded: Auto
// asks the engine to microbenchmark the candidates on the real plan
// geometry at construction and pin the winner for the plan's lifetime.
package exchange

import "fmt"

// Strategy selects how a plan executes its transpose-exchange.
type Strategy int

const (
	// Auto microbenchmarks the concrete strategies at plan
	// construction and pins the winner.
	Auto Strategy = iota
	// Staged is the pack → all-to-all → unpack three-pass path.
	Staged
	// Fused is the single-pass zero-copy gather from peer slabs.
	Fused
	// ChunkedFused is the fused gather in pairwise-exchange rounds.
	ChunkedFused
	// AT is the asynchrony-tolerant fused gather: publication is
	// epoch-tagged and double-buffered, and a rank whose peers lag
	// proceeds on their latest published slabs once they are within
	// the configured staleness bound (mpi.ExchangePlan.DoBounded).
	// It trades bounded accuracy (the scheme corrects for the
	// staleness) for immunity to stragglers, so it is opted into
	// explicitly and never autotuned against the exact strategies.
	AT
)

// Concrete lists the strategies an autotuner chooses between, in
// gauge-code order (see Code). AT is excluded: it changes the answer
// (bounded staleness), not just the speed, so it is never picked by
// timing alone.
var Concrete = []Strategy{Staged, Fused, ChunkedFused}

// String returns the flag-level name of the strategy.
func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case Staged:
		return "staged"
	case Fused:
		return "fused"
	case ChunkedFused:
		return "chunked"
	case AT:
		return "at"
	}
	return fmt.Sprintf("exchange.Strategy(%d)", int(s))
}

// Code is the numeric value published in the exchange.strategy gauge:
// 0 staged, 1 fused, 2 chunked-fused, 3 asynchrony-tolerant. Auto has
// no code — a plan always pins a concrete strategy before publishing.
func (s Strategy) Code() float64 {
	switch s {
	case Fused:
		return 1
	case ChunkedFused:
		return 2
	case AT:
		return 3
	default:
		return 0
	}
}

// Parse maps a flag value to a Strategy.
func Parse(s string) (Strategy, error) {
	switch s {
	case "auto", "":
		return Auto, nil
	case "staged":
		return Staged, nil
	case "fused":
		return Fused, nil
	case "chunked", "chunked-fused", "chunkedfused":
		return ChunkedFused, nil
	case "at", "asynchrony-tolerant":
		return AT, nil
	}
	return Auto, fmt.Errorf("exchange: unknown strategy %q (want auto, staged, fused, chunked or at)", s)
}

// Pair names one strategy per transpose direction: YZ for the
// Fourier→physical transpose and ZY for physical→Fourier. The two
// directions move the same bytes through mirrored access patterns, so
// an autotuner can (and does) pick them independently.
type Pair struct {
	YZ Strategy
	ZY Strategy
}

// Both returns the pair that uses s in both directions.
func Both(s Strategy) Pair { return Pair{YZ: s, ZY: s} }

// String renders the pair as "yz/zy" ("fused/staged"), collapsing to
// the single name when both directions agree.
func (p Pair) String() string {
	if p.YZ == p.ZY {
		return p.YZ.String()
	}
	return p.YZ.String() + "/" + p.ZY.String()
}
