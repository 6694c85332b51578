package pfft

import (
	"fmt"
	"math"
	"math/cmplx"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/exchange"
	"repro/internal/mpi"
	"repro/internal/pool/pooltest"
)

// Every buffer an engine holds costs only what it holds: each float and
// complex buffer reachable from the engine — pooled slabs, wire
// slabs, FFT plan scratch — is reached to its end by some slice. The
// slab under every strategy and on the f32 wire; the batched pipeline
// under every strategy, on both wires and both granularities, at two
// devices and two workers; a 2×2 pencil grid.
func TestEngineBuffersExactLength(t *testing.T) {
	const n = 24
	type engine struct {
		name  string
		ranks int
		build func(c *mpi.Comm) *SlabReal
	}
	engines := []engine{
		{"slab/chunked", 2, func(c *mpi.Comm) *SlabReal { return NewSlabRealStrategy(c, n, 2, exchange.ChunkedFused) }},
		{"slab/fused", 2, func(c *mpi.Comm) *SlabReal { return NewSlabRealStrategy(c, n, 2, exchange.Fused) }},
		{"slab/f32", 2, func(c *mpi.Comm) *SlabReal { return slabSingle(c, n, 2) }},
		{"pencil2x2/fused", 4, func(c *mpi.Comm) *SlabReal {
			row, col := c.CartGrid(2, 2)
			return NewPencilReal(col, row, n, 1, exchange.Both(exchange.Fused))
		}},
	}
	for _, st := range exchange.Concrete {
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
		pooltest.InWorld(tc.ranks, tc.build, func(built []*SlabReal) {
			for r, e := range built {
				bad, bufs := pooltest.Overheld(e)
				if bufs == 0 {
					t.Errorf("%s rank %d: the walk found no buffer", tc.name, r)
				}
				for _, b := range bad {
					t.Errorf("%s rank %d: %s", tc.name, r, b)
				}
			}
		}, (*SlabReal).Close)
	}
}

// pencilGrids are the grids of the one-intermediate tests, each with a
// rank whose x share is narrower than Nxh/Pc, so that X outgrows C
// there: 2×2 at N = 16 (Nxh 9 splits 5/4) and 2×3 at N = 24 (Nxh 13
// splits 5/4/4).
var pencilGrids = []struct{ n, pr, pc int }{{16, 2, 2}, {24, 2, 3}}

// withPencilGrid builds every rank's engine of a pencilGrids entry
// under st and hands them to inspect once the world is quiescent.
func withPencilGrid(n, pr, pc int, st exchange.Strategy, inspect func(built []*SlabReal)) {
	pooltest.InWorld(pr*pc, func(c *mpi.Comm) *SlabReal {
		row, col := c.CartGrid(pr, pc)
		return NewPencilReal(col, row, n, 1, exchange.Both(st))
	}, inspect, (*SlabReal).Close)
}

// On a grid with Pc > 1 the engine holds one intermediate pencil, B: X
// has no storage of its own and lives in the caller's Fourier slab, so
// FourierLen is max(CLen, PadXLen) on every rank. The walk counts every
// complex buffer at least as long as the rank's shortest pencil.
func TestPencilHoldsOneIntermediate(t *testing.T) {
	for _, g := range pencilGrids {
		for _, st := range exchange.Concrete {
			withPencilGrid(g.n, g.pr, g.pc, st, func(built []*SlabReal) {
				for r, e := range built {
					l, tag := e.l, fmt.Sprintf("N=%d %dx%d %s rank %d", g.n, g.pr, g.pc, st, r)
					if got, want := e.FourierLen(), max(l.CLen(), l.PadXLen); got != want {
						t.Errorf("%s: FourierLen %d, want max(CLen %d, PadXLen %d)", tag, got, l.CLen(), l.PadXLen)
					}
					shortest := min(l.BLen(), l.CLen(), l.My*l.Mz*l.Nxh)
					var pencils []string
					for _, b := range pooltest.Buffers(e) {
						stage := strings.Contains(b.Path, ".col.") || strings.Contains(b.Path, ".stages[")
						if b.Kind == reflect.Complex128 && b.Cap >= shortest && !stage {
							pencils = append(pencils, fmt.Sprintf("%s (%d)", b.Path, b.Cap))
						}
					}
					if len(pencils) != 1 || !strings.HasSuffix(pencils[0], fmt.Sprintf("(%d)", l.BLen())) {
						t.Errorf("%s: the engine holds %v, want B alone (%d elements)", tag, pencils, l.BLen())
					}
				}
			})
		}
	}
}

// The tail of the Fourier slab past C holds no mode: an inverse reads
// nothing there — NaN over it leaves every bit of the physical output
// as a clean run's — and a forward leaves +0 there, so a sum over the
// whole slab is a sum over the modes.
func TestPencilFourierTailHoldsNoMode(t *testing.T) {
	for _, g := range pencilGrids {
		for _, st := range exchange.Concrete {
			var tails atomic.Int64
			if err := mpi.TryRun(g.pr*g.pc, func(c *mpi.Comm) {
				row, col := c.CartGrid(g.pr, g.pc)
				f := NewPencilReal(col, row, g.n, 1, exchange.Both(st))
				defer f.Close()
				l := testLayout(f)
				phys := make([]float64, f.PhysicalLen())
				for i := range phys {
					phys[i] = pencilField(g.n, i%g.n, l.YRank*l.My+i/g.n/l.Mz, l.ZRank*l.Mz+i/g.n%l.Mz)
				}
				four, poisoned := make([]complex128, f.FourierLen()), make([]complex128, f.FourierLen())
				for i := range four {
					four[i] = cmplx.NaN()
				}
				f.PhysicalToFourier(four, phys)
				tails.Add(int64(len(four) - l.CLen()))
				for i, v := range four[l.CLen():] {
					if math.Float64bits(real(v)) != 0 || math.Float64bits(imag(v)) != 0 {
						panic(fmt.Sprintf("forward left %v at tail element %d", v, i))
					}
				}
				copy(poisoned, four)
				for i := l.CLen(); i < len(poisoned); i++ {
					poisoned[i] = cmplx.NaN()
				}
				clean, dirty := make([]float64, len(phys)), make([]float64, len(phys))
				f.FourierToPhysical(clean, four)
				f.FourierToPhysical(dirty, poisoned)
				for i := range clean {
					if math.Float64bits(clean[i]) != math.Float64bits(dirty[i]) {
						panic(fmt.Sprintf("NaN over the tail changed the inverse at %d: %v, clean %v", i, dirty[i], clean[i]))
					}
				}
			}); err != nil {
				t.Fatalf("N=%d %dx%d %s: %v", g.n, g.pr, g.pc, st, err)
			}
			if tails.Load() == 0 {
				t.Fatalf("N=%d %dx%d: no rank's Fourier slab has a tail past C", g.n, g.pr, g.pc)
			}
		}
	}
}
