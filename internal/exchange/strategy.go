// Package exchange is the transpose-exchange of the code base: the
// one Stage every transform engine runs its exchanges through
// (stage.go) and the strategy space a stage executes under (the tuner
// that picks between its points is internal/tuning's). Every strategy
// is a zero-copy gather: each rank publishes its source slab and reads
// its peers' slabs in place into its destination layout. Of the
// paper's three §4 data-movement variants, the strategies are the two
// the gather can take:
//
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
// The third, the cudaMemcpy2DAsync staging path (pack into
// per-destination blocks, exchange, unpack: three memory passes), is
// reproduced by the cost model of internal/cuda (cost.go, Figs 7 and 8
// in cmd/tables) and measured on the host by cmd/stridedcopy -mode
// real; no engine runs it.
//
// The paper's §5 configuration A/B/C study shows the winning strategy
// depends on (N, P, workers) and must be chosen, not hard-coded: Auto
// asks the engine to microbenchmark the candidates on the real plan
// geometry at construction and pin the winner for the plan's lifetime.
package exchange

import "fmt"

// Strategy selects how a plan executes its transpose-exchange.
type Strategy int

// The values are explicit because the tuning cache persists them; 1,
// the retired staged pack → all-to-all → unpack strategy, stays
// unassigned, so a cached point naming it is not Concrete and re-tunes.
const (
	// Auto microbenchmarks the concrete strategies at plan
	// construction and pins the winner.
	Auto Strategy = 0
	// Fused is the single-pass zero-copy gather from peer slabs.
	Fused Strategy = 2
	// ChunkedFused is the fused gather in pairwise-exchange rounds.
	ChunkedFused Strategy = 3
	// AT is the asynchrony-tolerant fused gather: publication is
	// epoch-tagged and double-buffered, and a rank whose peers lag
	// proceeds on their latest published slabs once they are within
	// the configured staleness bound (mpi.ExchangePlan.DoBounded).
	// It trades bounded accuracy (the scheme corrects for the
	// staleness) for immunity to stragglers, so it is opted into
	// explicitly and never autotuned against the exact strategies.
	AT Strategy = 4
)

// Concrete lists the strategies an autotuner chooses between, in
// gauge-code order (see Code). AT is excluded: it changes the answer
// (bounded staleness), not just the speed, so it is never picked by
// timing alone.
var Concrete = []Strategy{Fused, ChunkedFused}

// String returns the flag-level name of the strategy.
func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
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
// 1 fused, 2 chunked-fused, 3 asynchrony-tolerant. Auto has no code —
// a plan always pins a concrete strategy before publishing.
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
	case "fused":
		return Fused, nil
	case "chunked", "chunked-fused", "chunkedfused":
		return ChunkedFused, nil
	case "at", "asynchrony-tolerant":
		return AT, nil
	}
	return Auto, fmt.Errorf("exchange: unknown strategy %q (want auto, fused, chunked or at)", s)
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

// String renders the pair as "yz/zy" ("fused/chunked"), collapsing to
// the single name when both directions agree.
func (p Pair) String() string {
	if p.YZ == p.ZY {
		return p.YZ.String()
	}
	return p.YZ.String() + "/" + p.ZY.String()
}
