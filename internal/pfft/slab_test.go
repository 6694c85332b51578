package pfft

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cuda"
	"repro/internal/exchange"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/tuning"
)

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

// holdsStagingBlocks reports whether a's unit stages carry staged pack
// and recv blocks: it runs a Staged exchange through them, which a
// stage without blocks refuses before it communicates, on every rank
// alike. Collective.
func holdsStagingBlocks(a *SlabReal) (held bool) {
	defer func() {
		if e := recover(); e != nil {
			if msg, _ := e.(string); !strings.Contains(msg, "without staged blocks") {
				panic(e)
			}
			held = false
		}
	}()
	a.runTrial(exchange.ZY, exchange.Staged, make([]complex128, a.FourierLen()))
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

// The unit stages carry staged pack and recv blocks only when the
// engine pins Staged, the one strategy that exchanges through them —
// plain, f32-wire and tuned engines alike (the tuner builds its winner
// from the point, not from a Staged trial engine).
func TestAsyncRecvOnlyUnderStaged(t *testing.T) {
	const n, p = 16, 2
	chunked := tuning.Config{Space: tuning.Space{Strategies: []exchange.Strategy{exchange.ChunkedFused}}}
	if err := mpi.TryRun(p, func(c *mpi.Comm) {
		for _, tc := range []struct {
			name   string
			build  func() *SlabReal
			blocks bool
		}{
			{"staged", func() *SlabReal { return NewAsyncSlabReal(c, n, Options{NP: 2, Exchange: exchange.Staged}) }, true},
			{"staged f32", func() *SlabReal {
				return NewAsyncSlabReal(c, n, Options{NP: 2, Exchange: exchange.Staged, SingleComm: true})
			}, true},
			{"chunked", func() *SlabReal { return NewAsyncSlabReal(c, n, Options{NP: 2, Exchange: exchange.ChunkedFused}) }, false},
			{"fused f32", func() *SlabReal {
				return NewAsyncSlabReal(c, n, Options{NP: 2, Exchange: exchange.Fused, SingleComm: true})
			}, false},
			{"tuned chunked", func() *SlabReal { return NewAsyncSlabRealTuned(c, n, Options{NP: 2}, chunked) }, false},
		} {
			a := tc.build()
			blocks := holdsStagingBlocks(a)
			a.Close()
			if blocks != tc.blocks {
				panic(fmt.Sprintf("%s engine (pins %s): staged blocks held %v, want %v", tc.name, a.Strategy(), blocks, tc.blocks))
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// ringDepth is the capacity of a stream's ring: how many entries the
// host may enqueue ahead of the stream without blocking.
func ringDepth(s *cuda.Stream) int { return reflect.ValueOf(s).Elem().FieldByName("ring").Cap() }

// A stream's ring is sized to the program: the most entries one region
// enqueues on it plus Synchronize's marker — 2·np + 1 on the compute
// stream (a compute op and its event per plane group), 3·np + 1 on the
// transfer stream (a wait, a pack and its event) — so a region is
// enqueued without the host ever blocking, and, where the cells carry
// every event (per-pencil exchanges on the f32 wire), no deeper. Pinned
// at np 1 on one device and at the largest np, N/2+1, on two.
func TestStreamRingsAreProgramSized(t *testing.T) {
	const n = 16
	for _, tc := range []struct {
		opt               Options
		compute, transfer int
	}{
		{Options{NP: 1, Granularity: PerSlab, NGPU: 1}, 3, 0},
		{Options{NP: 1, Granularity: PerSlab, NGPU: 1, SingleComm: true}, 3, 4},
		{Options{NP: n/2 + 1, Granularity: PerPencil, NGPU: 2, SingleComm: true}, 2*(n/2+1) + 1, 3*(n/2+1) + 1},
	} {
		if err := mpi.TryRun(2, func(c *mpi.Comm) {
			a := newSlabReal(c, nil, n, tc.opt, exchange.Both(exchange.ChunkedFused))
			defer a.Close()
			// The most entries any compiled region enqueues on a stream
			// of one device, counted from its cells.
			most := [2]int{}
			for _, r := range []*region{&a.regT[0], &a.regT[1], &a.regM[0], &a.regM[1]} {
				for g := range a.gpus {
					var on [2]int
					for ip := 0; ip < a.np; ip++ {
						c := &r.cells[ip*len(a.gpus)+g]
						on[0]++
						if c.computed != nil {
							on[0]++
						}
						if r.packs {
							on[1] += 2
							if r.units {
								on[1]++
							}
						}
					}
					most[0], most[1] = max(most[0], on[0]), max(most[1], on[1])
				}
			}
			tight := tc.opt.SingleComm && tc.opt.Granularity == PerPencil
			check := func(name string, s *cuda.Stream, want, most int) {
				if got := ringDepth(s); got != want || got < most+1 || tight && got != most+1 {
					panic(fmt.Sprintf("%s ring %d, want %d (most entries a region enqueues %d, +1)", name, got, want, most))
				}
			}
			for g, ctx := range a.gpus {
				check(fmt.Sprintf("gpu%d compute", g), ctx.compute, tc.compute, most[0])
				if (ctx.transfer != nil) != (tc.transfer > 0) {
					panic(fmt.Sprintf("gpu%d: transfer stream %v on SingleComm=%v", g, ctx.transfer != nil, tc.opt.SingleComm))
				}
				if ctx.transfer != nil {
					check(fmt.Sprintf("gpu%d transfer", g), ctx.transfer, tc.transfer, most[1])
				}
			}
		}); err != nil {
			t.Fatalf("%+v: %v", tc.opt, err)
		}
	}
}
