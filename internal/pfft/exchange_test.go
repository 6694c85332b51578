package pfft

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/exchange"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/mpi"
)

// Every concrete strategy pair must be bitwise identical to the staged
// pack → all-to-all → unpack triple in both directions — for every rank
// count and team size (7 workers outnumber the units at P=7), on full
// forward+inverse transforms, on either wire precision: narrowing is
// deterministic, so the single-precision paths must agree exactly with
// each other too, on the full engine and on one truncated to the 2/3
// band (whose narrow and widen passes convert only the band). The pairs
// are pinned through the in-package constructor, so which complex64
// strategy gets its output checked never depends on what the autotuner
// picks on this machine. n=28 is divisible by every tested P.
func TestSlabRealExchangeStrategiesBitwiseIdentity(t *testing.T) {
	const n = 28
	for _, single := range []bool{false, true} {
		for _, p := range []int{1, 2, 4, 7} {
			kmaxes := []int{-1}
			if single {
				kmaxes = append(kmaxes, grid.DealiasKmax(n))
			}
			t.Run(fmt.Sprintf("single=%v/p%d", single, p), func(t *testing.T) {
				for _, kmax := range kmaxes {
					if err := mpi.TryRun(p, func(c *mpi.Comm) { checkStrategiesBitwise(c, n, kmax, single) }); err != nil {
						t.Fatalf("kmax=%d: %v", kmax, err)
					}
				}
			})
		}
	}
}

// checkStrategiesBitwise is one rank of one case of
// TestSlabRealExchangeStrategiesBitwiseIdentity: every strategy pair
// and team size against staged/staged, all truncated to kmax.
func checkStrategiesBitwise(c *mpi.Comm, n, kmax int, single bool) {
	ref := slabWith(c, n, 1, exchange.Both(exchange.Staged), single)
	defer ref.Close()
	ref.Truncate(kmax)
	fl, pl := ref.FourierLen(), ref.PhysicalLen()

	rng := rand.New(rand.NewSource(int64(42 + c.Rank())))
	physIn := make([]float64, pl)
	for i := range physIn {
		physIn[i] = rng.NormFloat64()
	}
	refFour := make([]complex128, fl)
	refPhys := make([]float64, pl)
	scratch := make([]float64, pl)
	copy(scratch, physIn)
	ref.PhysicalToFourier(refFour, scratch)
	fourScratch := make([]complex128, fl)
	copy(fourScratch, refFour)
	ref.FourierToPhysical(refPhys, fourScratch)

	for _, zy := range exchange.Concrete {
		for _, yz := range exchange.Concrete {
			for _, w := range []int{1, 3, 7} {
				pair := exchange.Pair{YZ: yz, ZY: zy}
				f := slabWith(c, n, w, pair, single)
				f.Truncate(kmax)
				if (f.four32 != nil) != single || f.StrategyPair() != pair {
					panic(fmt.Sprintf("engine holds f32 slabs %v, reports pair=%s, built single=%v pair=%s",
						f.four32 != nil, f.StrategyPair(), single, pair))
				}
				four := make([]complex128, fl)
				phys := make([]float64, pl)
				copy(phys, physIn)
				f.PhysicalToFourier(four, phys)
				for i := range four {
					if four[i] != refFour[i] {
						panic(fmt.Sprintf("rank %d %s workers=%d: forward differs at %d: %v vs %v",
							c.Rank(), pair, w, i, four[i], refFour[i]))
					}
				}
				out := make([]float64, pl)
				f.FourierToPhysical(out, four)
				for i := range out {
					if out[i] != refPhys[i] {
						panic(fmt.Sprintf("rank %d %s workers=%d: inverse differs at %d: %v vs %v",
							c.Rank(), pair, w, i, out[i], refPhys[i]))
					}
				}
				f.Close()
			}
		}
	}
}

// Autotuned plans must pin a concrete strategy, agree on it across
// ranks, and expose it through the exchange.strategy gauge.
func TestSlabRealAutotunePinsConcreteStrategy(t *testing.T) {
	const n, p = 16, 4
	reg := metrics.NewRegistry()
	reg.SetOn(true)
	if err := mpi.RunWith(p, reg, func(c *mpi.Comm) {
		f := NewSlabRealStrategy(c, n, 2, exchange.Auto)
		defer f.Close()
		st := f.Strategy()
		if st == exchange.Auto {
			panic("autotune left strategy at Auto")
		}
		// Cross-rank agreement: allgather the codes and compare.
		codes := make([]float64, p)
		mpi.Allgather(c, []float64{st.Code()}, codes)
		for r, code := range codes {
			if code != st.Code() {
				panic(fmt.Sprintf("rank %d pinned %v but rank %d pinned code %v", c.Rank(), st, r, code))
			}
		}
		if g := c.Metrics().GaugeRank("exchange.strategy", c.Rank()).Value(); g != st.Code() {
			panic(fmt.Sprintf("exchange.strategy gauge = %v, want %v", g, st.Code()))
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// Fused steady state must stay allocation-free: the gather callbacks
// and team bodies are prebuilt at plan time, and ExchangePlan.Do is a
// slice store plus two barrier waits.
func TestSlabRealFusedSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("N=64 transform loop in -short mode")
	}
	const n, p, runs = 64, 4, 10
	for _, st := range []exchange.Strategy{exchange.Fused, exchange.ChunkedFused} {
		st := st
		t.Run(st.String(), func(t *testing.T) {
			if err := mpi.TryRun(p, func(c *mpi.Comm) {
				f := NewSlabRealStrategy(c, n, 1, st)
				defer f.Close()
				four := make([]complex128, f.FourierLen())
				phys := make([]float64, f.PhysicalLen())
				for i := range phys {
					phys[i] = float64(i%13) * 0.25
				}
				cycle := func() {
					f.PhysicalToFourier(four, phys)
					f.FourierToPhysical(phys, four)
				}
				for i := 0; i < 3; i++ {
					cycle()
				}
				var avg float64
				if c.Rank() == 0 {
					avg = testing.AllocsPerRun(runs, cycle)
				} else {
					for i := 0; i < runs+1; i++ {
						cycle()
					}
				}
				c.Barrier() // peers close (and allocate) only after rank 0 has read its counters
				if avg != 0 {
					panic(fmt.Sprintf("%s steady state allocates %.2f per cycle", st, avg))
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Only Staged touches a stage's pack and recv blocks, so an engine
// pinned to a zero-copy strategy or to AT is built without them and its
// stages refuse a Staged exchange, while an engine with a Staged
// direction carries them and runs Staged both ways. ZY runs first so a
// pencil grid reaches its column stage before the row stage.
func TestPinnedEnginesCarryNoStagedBlocks(t *testing.T) {
	const n = 16
	pencil := func(pair exchange.Pair) func(c *mpi.Comm) *SlabReal {
		return func(c *mpi.Comm) *SlabReal {
			row, col := c.CartGrid(2, 2)
			return NewPencilReal(col, row, n, 1, pair)
		}
	}
	for _, tc := range []struct {
		name   string
		p      int
		build  func(c *mpi.Comm) *SlabReal
		blocks bool
	}{
		{"slab fused", 2, func(c *mpi.Comm) *SlabReal { return NewSlabRealStrategy(c, n, 1, exchange.Fused) }, false},
		{"slab chunked", 2, func(c *mpi.Comm) *SlabReal { return NewSlabRealStrategy(c, n, 1, exchange.ChunkedFused) }, false},
		{"slab at", 2, func(c *mpi.Comm) *SlabReal { return slabAT(c, n, 1, 0, time.Second) }, false},
		{"pencil 2x2 chunked", 4, pencil(exchange.Both(exchange.ChunkedFused)), false},
		{"slab staged", 2, func(c *mpi.Comm) *SlabReal { return NewSlabRealStrategy(c, n, 1, exchange.Staged) }, true},
		{"slab staged/fused", 2, func(c *mpi.Comm) *SlabReal {
			return slabWith(c, n, 1, exchange.Pair{YZ: exchange.Staged, ZY: exchange.Fused}, false)
		}, true},
		{"pencil 2x2 staged/fused", 4, pencil(exchange.Pair{YZ: exchange.Staged, ZY: exchange.Fused}), true},
	} {
		err := mpi.TryRun(tc.p, func(c *mpi.Comm) {
			f := tc.build(c)
			defer f.Close()
			four := make([]complex128, f.FourierLen())
			for _, d := range []exchange.Dir{exchange.ZY, exchange.YZ} {
				f.runTrial(d, exchange.Staged, four)
			}
		})
		refused := err != nil && strings.Contains(err.Error(), "NewStage allocates the pack and recv blocks only for stagedLen > 0")
		if tc.blocks && err != nil || !tc.blocks && !refused {
			t.Errorf("%s (blocks expected: %v): a Staged exchange returned %v", tc.name, tc.blocks, err)
		}
	}
}

// The isolated ExchangeYZ hook (what the bench harness drives) must
// produce the same physical-side layout for every strategy.
func TestExchangeYZStrategyIdentity(t *testing.T) {
	const n, p = 28, 4
	if err := mpi.TryRun(p, func(c *mpi.Comm) {
		ref := NewSlabRealStrategy(c, n, 2, exchange.Staged)
		defer ref.Close()
		fl := ref.FourierLen()
		four := make([]complex128, fl)
		rng := rand.New(rand.NewSource(int64(9 + c.Rank())))
		for i := range four {
			four[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		ref.ExchangeYZ(four)
		want := make([]complex128, len(ref.mid))
		copy(want, ref.mid)

		for _, st := range []exchange.Strategy{exchange.Fused, exchange.ChunkedFused} {
			f := NewSlabRealStrategy(c, n, 2, st)
			f.ExchangeYZ(four)
			for i := range want {
				if f.mid[i] != want[i] {
					panic(fmt.Sprintf("rank %d %s: ExchangeYZ differs at %d", c.Rank(), st, i))
				}
			}
			f.Close()
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// A staged exchange moves the band's compact blocks: per direction,
// every unit's exchange charges exchange.bytes (P−1)·w·My·KB elements
// at the wire precision — w the unit's planes (none for a group past
// N/P), KB the band's x width — not whole w·My·Nxh blocks. The slab is
// the np = 1 case, its one unit the whole slab.
func TestStagedChargesBandBlocks(t *testing.T) {
	const n = 16
	for _, p := range []int{1, 2, 4} {
		for _, kmax := range []int{-1, grid.DealiasKmax(n)} {
			for _, np := range []int{1, 3, 5} {
				for _, gran := range []Granularity{PerPencil, PerSlab} {
					for _, single := range []bool{false, true} {
						opt := Options{NP: np, Granularity: gran, Exchange: exchange.Staged, SingleComm: single}
						if err := mpi.RunWith(p, metrics.NewRegistry(), func(c *mpi.Comm) {
							checkStagedBytes(c, n, kmax, opt)
						}); err != nil {
							t.Fatalf("P=%d kmax=%d %+v: %v", p, kmax, opt, err)
						}
					}
				}
			}
		}
	}
}

// checkStagedBytes is one rank of TestStagedChargesBandBlocks.
func checkStagedBytes(c *mpi.Comm, n, kmax int, opt Options) {
	a := NewAsyncSlabReal(c, n, opt)
	defer a.Close()
	a.Truncate(kmax)
	p, my := c.Size(), n/c.Size()
	kb, elem := int64(grid.NewBand(n, kmax).Width(0, n/2+1)), int64(16)
	if opt.SingleComm {
		elem = 8
	}
	units := splitRange(my, opt.NP)
	if opt.Granularity == PerSlab {
		units = []span{{0, my}}
	}
	want := int64(0)
	for _, u := range units {
		want += int64((p-1)*u.width()*my) * kb * elem
	}
	ctr := c.Metrics().CounterRank("exchange.bytes", c.Rank())
	four := make([]complex128, a.FourierLen())
	phys := make([]float64, a.PhysicalLen())
	for _, d := range []exchange.Dir{exchange.YZ, exchange.ZY} {
		before := ctr.Value()
		if d == exchange.YZ {
			a.FourierToPhysical(phys, four)
		} else {
			a.PhysicalToFourier(four, phys)
		}
		if got := ctr.Value() - before; got != want {
			panic(fmt.Sprintf("dir %d: exchange.bytes grew %d, the band's blocks are %d", d, got, want))
		}
	}
}
