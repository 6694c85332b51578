package pfft

import (
	"testing"

	"repro/internal/exchange"
	"repro/internal/mpi"
	"repro/internal/pool/pooltest"
)

// Every buffer an engine holds costs only what it holds: each float and
// complex buffer reachable from the engine — pooled slabs, staging and
// wire blocks, FFT plan scratch — is reached to its end by some slice,
// on the slab under every kind of stage (plain, Staged blocks, the
// f32 wire) and on a 2×2 pencil grid.
func TestEngineBuffersExactLength(t *testing.T) {
	const n = 24
	for _, tc := range []struct {
		name  string
		ranks int
		build func(c *mpi.Comm) *Engine
	}{
		{"slab/fused", 2, func(c *mpi.Comm) *Engine { return NewSlabRealStrategy(c, n, 2, exchange.ChunkedFused) }},
		{"slab/staged", 2, func(c *mpi.Comm) *Engine { return NewSlabRealStrategy(c, n, 2, exchange.Staged) }},
		{"slab/f32", 2, func(c *mpi.Comm) *Engine { return NewSlabRealSingle(c, n, 2) }},
		{"pencil2x2/staged", 4, func(c *mpi.Comm) *Engine {
			row, col := c.CartGrid(2, 2)
			return NewPencilReal(col, row, n, 1, exchange.Both(exchange.Staged))
		}},
	} {
		mpi.Run(tc.ranks, func(c *mpi.Comm) {
			e := tc.build(c)
			defer e.Close()
			bad, bufs := pooltest.Overheld(e)
			if bufs == 0 {
				t.Errorf("%s rank %d: the walk found no buffer", tc.name, c.Rank())
			}
			for _, b := range bad {
				t.Errorf("%s rank %d: %s", tc.name, c.Rank(), b)
			}
		})
	}
}
