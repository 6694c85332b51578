package pfft

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/exchange"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/mpi"
)

// Every concrete strategy pair must be bitwise identical to the fused
// gather at one worker in both directions — for every rank
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
// and team size against fused/fused at one worker, all truncated to
// kmax.
func checkStrategiesBitwise(c *mpi.Comm, n, kmax int, single bool) {
	ref := slabWith(c, n, 1, exchange.Both(exchange.Fused), single)
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

// The isolated ExchangeYZ hook (what the bench harness drives) must
// produce the same physical-side layout for every strategy and team
// size.
func TestExchangeYZStrategyIdentity(t *testing.T) {
	const n, p = 28, 4
	if err := mpi.TryRun(p, func(c *mpi.Comm) {
		ref := NewSlabRealStrategy(c, n, 1, exchange.Fused)
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

		for _, st := range exchange.Concrete {
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
