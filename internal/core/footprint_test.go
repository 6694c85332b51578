package core

import (
	"fmt"
	"testing"

	"repro/internal/exchange"
	"repro/internal/mpi"
	"repro/internal/pool/pooltest"
)

// Every buffer the batched engine holds costs only what it holds: each
// float and complex buffer reachable from it — the pooled mid slab, the
// f32 wire slabs, the stages' staged blocks, the cells' FFT plan
// scratch — is reached to its end by some slice, zero-copy and staged,
// on both wires and both granularities.
func TestEngineBuffersExactLength(t *testing.T) {
	const n, p = 24, 2
	for _, st := range []exchange.Strategy{exchange.ChunkedFused, exchange.Staged} {
		for _, single := range []bool{false, true} {
			for _, gran := range []Granularity{PerPencil, PerSlab} {
				opt := Options{NP: 3, Granularity: gran, NGPU: 2, Workers: 2, SingleComm: single, Exchange: st}
				mpi.Run(p, func(c *mpi.Comm) {
					a := NewAsyncSlabReal(c, n, opt)
					defer a.Close()
					tag := fmt.Sprintf("%v single=%v gran=%v rank %d", st, single, gran, c.Rank())
					bad, bufs := pooltest.Overheld(a)
					if bufs == 0 {
						t.Errorf("%s: the walk found no buffer", tag)
					}
					for _, b := range bad {
						t.Errorf("%s: %s", tag, b)
					}
				})
			}
		}
	}
}
