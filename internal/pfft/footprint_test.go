package pfft

import (
	"fmt"
	"testing"

	"repro/internal/exchange"
	"repro/internal/mpi"
	"repro/internal/pool/pooltest"
)

// Every buffer an engine holds costs only what it holds: each float and
// complex buffer reachable from the engine — pooled slabs, staging and
// wire blocks, FFT plan scratch — is reached to its end by some slice.
// The slab under every kind of stage (plain, Staged blocks, the f32
// wire); the batched pipeline zero-copy and staged, on both wires and
// both granularities, at two devices and two workers; a 2×2 pencil
// grid.
func TestEngineBuffersExactLength(t *testing.T) {
	const n = 24
	type engine struct {
		name  string
		ranks int
		build func(c *mpi.Comm) *SlabReal
	}
	engines := []engine{
		{"slab/fused", 2, func(c *mpi.Comm) *SlabReal { return NewSlabRealStrategy(c, n, 2, exchange.ChunkedFused) }},
		{"slab/staged", 2, func(c *mpi.Comm) *SlabReal { return NewSlabRealStrategy(c, n, 2, exchange.Staged) }},
		{"slab/f32", 2, func(c *mpi.Comm) *SlabReal { return NewSlabRealSingle(c, n, 2) }},
		{"pencil2x2/staged", 4, func(c *mpi.Comm) *SlabReal {
			row, col := c.CartGrid(2, 2)
			return NewPencilReal(col, row, n, 1, exchange.Both(exchange.Staged))
		}},
	}
	for _, st := range []exchange.Strategy{exchange.ChunkedFused, exchange.Staged} {
		for _, single := range []bool{false, true} {
			for _, gran := range []Granularity{PerPencil, PerSlab} {
				opt := Options{NP: 3, Granularity: gran, NGPU: 2, Workers: 2, SingleComm: single, Exchange: st}
				engines = append(engines, engine{fmt.Sprintf("batched %+v", opt), 2, func(c *mpi.Comm) *SlabReal {
					return NewAsyncSlabReal(c, n, opt)
				}})
			}
		}
	}
	for _, tc := range engines {
		// The walk reaches the world through the engine's communicator,
		// so it runs once the world is quiescent, not beside a peer's
		// collectives.
		built := make([]*SlabReal, tc.ranks)
		mpi.Run(tc.ranks, func(c *mpi.Comm) { built[c.Rank()] = tc.build(c) })
		for r, e := range built {
			bad, bufs := pooltest.Overheld(e)
			if bufs == 0 {
				t.Errorf("%s rank %d: the walk found no buffer", tc.name, r)
			}
			for _, b := range bad {
				t.Errorf("%s rank %d: %s", tc.name, r, b)
			}
			e.Close()
		}
	}
}
