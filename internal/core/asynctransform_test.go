package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/exchange"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/pfft"
)

// runBoth transforms the same random Fourier slab through the
// synchronous reference and the asynchronous pipeline and returns the
// max abs difference of the physical fields plus the round-trip error.
func runBoth(t *testing.T, n, p int, opt Options) (maxDiff, roundTrip float64) {
	t.Helper()
	var mu sync.Mutex
	var worstDiff, worstRT float64
	mpi.Run(p, func(c *mpi.Comm) {
		ref := pfft.NewSlabReal(c, n)
		async := NewAsyncSlabReal(c, n, opt)
		defer async.Close()

		rng := rand.New(rand.NewSource(int64(c.Rank()) + 101))
		phys0 := make([]float64, ref.PhysicalLen())
		for i := range phys0 {
			phys0[i] = rng.NormFloat64()
		}
		// Build a valid (conjugate-symmetric) spectrum from real data.
		fourRef := make([]complex128, ref.FourierLen())
		ref.PhysicalToFourier(fourRef, phys0)
		fourAsync := make([]complex128, async.FourierLen())
		physAsync := make([]float64, async.PhysicalLen())
		async.PhysicalToFourier(fourAsync, phys0)
		var d float64
		for i := range fourRef {
			if e := cmplx.Abs(fourAsync[i] - fourRef[i]); e > d {
				d = e
			}
		}
		// Forward direction comparison.
		fourCopy := make([]complex128, len(fourRef))
		copy(fourCopy, fourRef)
		physRef := make([]float64, ref.PhysicalLen())
		ref.FourierToPhysical(physRef, fourCopy)
		copy(fourCopy, fourRef)
		async.FourierToPhysical(physAsync, fourCopy)
		for i := range physRef {
			if e := math.Abs(physAsync[i] - physRef[i]); e > d {
				d = e
			}
		}
		// Round trip through the async engine alone.
		copy(fourCopy, fourRef)
		async.FourierToPhysical(physAsync, fourCopy)
		async.PhysicalToFourier(fourCopy, physAsync)
		var rt float64
		for i := range fourCopy {
			if e := cmplx.Abs(fourCopy[i] - fourRef[i]); e > rt {
				rt = e
			}
		}
		mu.Lock()
		if d > worstDiff {
			worstDiff = d
		}
		if rt > worstRT {
			worstRT = rt
		}
		mu.Unlock()
	})
	return worstDiff, worstRT
}

func TestAsyncMatchesSyncPerSlab(t *testing.T) {
	d, rt := runBoth(t, 16, 4, Options{NP: 3, Granularity: PerSlab})
	if d > 1e-10 {
		t.Errorf("async(PerSlab) differs from sync by %g", d)
	}
	if rt > 1e-10 {
		t.Errorf("round trip error %g", rt)
	}
}

func TestAsyncMatchesSyncPerPencil(t *testing.T) {
	d, rt := runBoth(t, 16, 4, Options{NP: 4, Granularity: PerPencil})
	if d > 1e-10 {
		t.Errorf("async(PerPencil) differs from sync by %g", d)
	}
	if rt > 1e-10 {
		t.Errorf("round trip error %g", rt)
	}
}

func TestAsyncManyPencilCounts(t *testing.T) {
	// N/P = 8 for n=16: exercise uneven plane groups including np∤N/P
	// and np > N/P (an empty group).
	for _, np := range []int{1, 2, 3, 5, 7, 9} {
		for _, gran := range []Granularity{PerPencil, PerSlab} {
			d, _ := runBoth(t, 16, 2, Options{NP: np, Granularity: gran})
			if d > 1e-10 {
				t.Errorf("np=%d gran=%d: diff %g", np, gran, d)
			}
		}
	}
}

func TestAsyncMultiGPU(t *testing.T) {
	// Fig 5: pencils split vertically across multiple devices per rank.
	for _, ngpu := range []int{2, 3} {
		d, rt := runBoth(t, 12, 2, Options{NP: 3, Granularity: PerPencil, NGPU: ngpu})
		if d > 1e-10 {
			t.Errorf("ngpu=%d: diff %g", ngpu, d)
		}
		if rt > 1e-10 {
			t.Errorf("ngpu=%d: round trip %g", ngpu, rt)
		}
	}
}

func TestAsyncMoreGPUsThanWidth(t *testing.T) {
	// Degenerate vertical splits (some devices get zero width).
	d, _ := runBoth(t, 8, 2, Options{NP: 5, Granularity: PerSlab, NGPU: 4})
	if d > 1e-10 {
		t.Errorf("diff %g", d)
	}
}

func TestAsyncSingleRank(t *testing.T) {
	d, rt := runBoth(t, 16, 1, Options{NP: 3, Granularity: PerPencil})
	if d > 1e-10 || rt > 1e-10 {
		t.Errorf("single rank: diff %g rt %g", d, rt)
	}
}

func TestAsyncManyRanks(t *testing.T) {
	d, _ := runBoth(t, 16, 8, Options{NP: 3, Granularity: PerSlab})
	if d > 1e-10 {
		t.Errorf("8 ranks: diff %g", d)
	}
}

func TestSyncGPUBaseline(t *testing.T) {
	// The Fig 2 synchronous algorithm is the np=1 PerSlab special case.
	mpi.Run(2, func(c *mpi.Comm) {
		sg := NewSyncGPU(c, 16)
		defer sg.Close()
		if sg.NP() != 1 {
			t.Errorf("sync baseline np=%d", sg.NP())
		}
		ref := pfft.NewSlabReal(c, 16)
		rng := rand.New(rand.NewSource(7))
		phys := make([]float64, ref.PhysicalLen())
		for i := range phys {
			phys[i] = rng.NormFloat64()
		}
		fr := make([]complex128, ref.FourierLen())
		fs := make([]complex128, sg.FourierLen())
		ref.PhysicalToFourier(fr, phys)
		sg.PhysicalToFourier(fs, phys)
		for i := range fr {
			if cmplx.Abs(fr[i]-fs[i]) > 1e-10 {
				t.Fatalf("sync GPU baseline differs at %d", i)
			}
		}
	})
}

func TestRepeatedTransformsReuseBuffersSafely(t *testing.T) {
	// Many back-to-back transforms through the same engine must not
	// corrupt state (slot rotation, event bookkeeping).
	mpi.Run(2, func(c *mpi.Comm) {
		a := NewAsyncSlabReal(c, 8, Options{NP: 3, Granularity: PerPencil})
		defer a.Close()
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		phys := make([]float64, a.PhysicalLen())
		for i := range phys {
			phys[i] = rng.NormFloat64()
		}
		orig := make([]float64, len(phys))
		copy(orig, phys)
		four := make([]complex128, a.FourierLen())
		for iter := 0; iter < 5; iter++ {
			a.PhysicalToFourier(four, phys)
			a.FourierToPhysical(phys, four)
			for i := range phys {
				if math.Abs(phys[i]-orig[i]) > 1e-8 {
					t.Fatalf("iter %d: drift %g at %d", iter, phys[i]-orig[i], i)
				}
			}
		}
	})
}

func TestSplitRangeProperties(t *testing.T) {
	for total := 1; total <= 20; total++ {
		for n := 1; n <= total+3; n++ {
			spans := splitRange(total, n)
			if len(spans) != n {
				t.Fatalf("splitRange(%d,%d): %d spans", total, n, len(spans))
			}
			lo := 0
			for _, s := range spans {
				if s.lo != lo || s.hi < s.lo {
					t.Fatalf("splitRange(%d,%d): bad span %+v", total, n, s)
				}
				lo = s.hi
			}
			if lo != total {
				t.Fatalf("splitRange(%d,%d): covers %d", total, n, lo)
			}
			// Widths differ by at most 1.
			minW, maxW := total, 0
			for _, s := range spans {
				if s.width() < minW {
					minW = s.width()
				}
				if s.width() > maxW {
					maxW = s.width()
				}
			}
			if maxW-minW > 1 {
				t.Fatalf("splitRange(%d,%d): uneven widths", total, n)
			}
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for np > nxh")
		}
	}()
	mpi.Run(1, func(c *mpi.Comm) {
		NewAsyncSlabReal(c, 8, Options{NP: 100})
	})
}

// holdsStagingBlocks reports whether a's unit stages carry staged pack
// and recv blocks: it runs a Staged exchange through them, which a
// stage without blocks refuses before it communicates, on every rank
// alike. Collective.
func holdsStagingBlocks(a *AsyncSlabReal) (held bool) {
	defer func() {
		if e := recover(); e != nil {
			if msg, _ := e.(string); !strings.Contains(msg, "without staged blocks") {
				panic(e)
			}
			held = false
		}
	}()
	a.four = make([]complex128, a.FourierLen())
	defer func() { a.four = nil }()
	a.exchange(exchange.ZY, exchange.Staged)
	return true
}

// A double-precision zero-copy engine moves nothing but its gathers:
// each unit publishes its plane range of the slab itself, so no unit
// stage holds staged blocks, the engine holds no narrowed buffer, no
// transposing cell carries a
// pack op, and no device has a transfer stream. Over a transform pair
// the devices execute the compute ops alone — four regions of np cells
// per device — and count no transfer or packed bytes. Every zero-copy
// strategy, both granularities, one or two devices, and a pencil count
// past N/P.
func TestZeroCopyEngineHoldsNoSendBuffer(t *testing.T) {
	const n, p = 16, 2 // N/P = 8
	for _, st := range []exchange.Strategy{exchange.Fused, exchange.ChunkedFused, exchange.AT} {
		for _, gran := range []Granularity{PerPencil, PerSlab} {
			for _, ngpu := range []int{1, 2} {
				for _, np := range []int{3, 9} {
					opt := Options{NP: np, Granularity: gran, NGPU: ngpu, Exchange: st, ATMaxStale: 1}
					if err := mpi.RunWith(p, metrics.NewRegistry(), func(c *mpi.Comm) {
						a := NewAsyncSlabReal(c, n, opt)
						defer a.Close()
						if blocks := holdsStagingBlocks(a); blocks || a.four32 != nil || a.mid32 != nil {
							panic(fmt.Sprintf("wire buffers held: staged blocks %v, narrowed %d+%d", blocks, len(a.four32), len(a.mid32)))
						}
						for g, ctx := range a.gpus {
							if ctx.transfer != nil {
								panic(fmt.Sprintf("device %d has a transfer stream", g))
							}
						}
						for d := range a.regT {
							for i, cl := range a.regT[d].cells {
								if cl.pack.Run != nil || cl.packed != nil {
									panic(fmt.Sprintf("dir %d cell %d carries a pack op", d, i))
								}
							}
						}
						reg, me := c.Metrics(), c.Rank()
						counters := []*metrics.Counter{reg.CounterRank("cuda.stream.ops", me),
							reg.CounterRank("cuda.xfer.bytes", me), reg.CounterRank("gpu.d2h.bytes", me)}
						var before [3]int64
						for i, ctr := range counters {
							before[i] = ctr.Value()
						}
						four := make([]complex128, a.FourierLen())
						phys := make([]float64, a.PhysicalLen())
						a.PhysicalToFourier(four, phys)
						a.FourierToPhysical(phys, four)
						for i, want := range []int64{int64(4 * np * ngpu), 0, 0} {
							if got := counters[i].Value() - before[i]; got != want {
								panic(fmt.Sprintf("counter %d grew %d over a pair, want %d", i, got, want))
							}
						}
					}); err != nil {
						t.Fatalf("%+v: %v", opt, err)
					}
				}
			}
		}
	}
}
