package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/exchange"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/pfft"
	"repro/internal/spectral"
)

func TestSingleCommAccuracy(t *testing.T) {
	// The single-precision wire format must agree with the float64
	// reference to single-precision rounding (~1e-6 relative).
	n, p := 16, 2
	for _, gran := range []pfft.Granularity{pfft.PerPencil, pfft.PerSlab} {
		mpi.Run(p, func(c *mpi.Comm) {
			ref := pfft.NewSlabRealStrategy(c, n, 1, exchange.Auto)
			defer ref.Close()
			sgl := pfft.NewAsyncSlabReal(c, n, pfft.Options{NP: 4, Granularity: gran, SingleComm: true})
			defer sgl.Close()

			rng := rand.New(rand.NewSource(int64(c.Rank()) + 7))
			phys := make([]float64, ref.PhysicalLen())
			var scale float64
			for i := range phys {
				phys[i] = rng.NormFloat64()
				scale = math.Max(scale, math.Abs(phys[i]))
			}
			fr := make([]complex128, ref.FourierLen())
			fs := make([]complex128, sgl.FourierLen())
			ref.PhysicalToFourier(fr, phys)
			sgl.PhysicalToFourier(fs, phys)
			var worst float64
			var norm float64
			for i := range fr {
				worst = math.Max(worst, cmplx.Abs(fr[i]-fs[i]))
				norm = math.Max(norm, cmplx.Abs(fr[i]))
			}
			if worst/norm > 1e-5 {
				t.Errorf("gran=%d: single-comm relative error %g", gran, worst/norm)
			}
			if worst == 0 {
				t.Errorf("gran=%d: exactly zero error — single path not exercised", gran)
			}
		})
	}
}

func TestSingleCommRoundTripStable(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		a := pfft.NewAsyncSlabReal(c, 8, pfft.Options{NP: 3, Granularity: pfft.PerPencil, SingleComm: true})
		defer a.Close()
		rng := rand.New(rand.NewSource(3))
		phys := make([]float64, a.PhysicalLen())
		for i := range phys {
			phys[i] = rng.NormFloat64()
		}
		orig := append([]float64(nil), phys...)
		four := make([]complex128, a.FourierLen())
		for iter := 0; iter < 4; iter++ {
			a.PhysicalToFourier(four, phys)
			a.FourierToPhysical(phys, four)
		}
		var worst float64
		for i := range phys {
			worst = math.Max(worst, math.Abs(phys[i]-orig[i]))
		}
		// 8 single-precision conversions accumulate to ~1e-5 absolute.
		if worst > 1e-4 {
			t.Errorf("round-trip drift %g after 4 cycles", worst)
		}
	})
}

func TestSingleCommDNSRunsStably(t *testing.T) {
	// The full solver on the single-precision wire stays stable and
	// divergence-free to communication precision.
	mpi.Run(2, func(c *mpi.Comm) {
		tr := pfft.NewAsyncSlabReal(c, 16, pfft.Options{NP: 3, Granularity: pfft.PerSlab, SingleComm: true})
		defer tr.Close()
		s := spectral.New(c, 16, spectral.WithNu(0.02), spectral.WithScheme(spectral.RK2),
			spectral.WithDealias(spectral.Dealias23), spectral.WithTransform(tr))
		defer s.Close()
		s.SetRandomIsotropic(3, 0.5, 13)
		e0 := s.Energy()
		for i := 0; i < 5; i++ {
			s.Step(0.004)
		}
		e1 := s.Energy()
		if math.IsNaN(e1) || e1 >= e0 || e1 < 0.8*e0 {
			t.Errorf("energy %g → %g not a plausible decay", e0, e1)
		}
	})
}

// The single-precision wire charges exactly half of what the
// double-precision one charges in exchange.bytes, per pinned strategy
// over a transform pair. Both counts must be nonzero, so the
// comparison cannot hold as 0 = 0.
func TestSingleCommHalvesWireBytes(t *testing.T) {
	const n, p = 16, 2
	for _, st := range exchange.Concrete {
		const counter = "exchange.bytes"
		var charged [2]int64 // f64, f32
		for i, single := range []bool{false, true} {
			reg := metrics.NewRegistry()
			if err := mpi.RunWith(p, reg, func(c *mpi.Comm) {
				a := pfft.NewAsyncSlabReal(c, n, pfft.Options{NP: 3, Exchange: st, SingleComm: single})
				defer a.Close()
				four := make([]complex128, a.FourierLen())
				phys := make([]float64, a.PhysicalLen())
				a.PhysicalToFourier(four, phys)
				a.FourierToPhysical(phys, four)
			}); err != nil {
				t.Fatalf("%s single=%v: %v", st, single, err)
			}
			for _, e := range reg.Snapshot().Entries {
				if e.Name == counter {
					charged[i] += int64(e.Value)
				}
			}
		}
		if charged[1] == 0 || 2*charged[1] != charged[0] {
			t.Errorf("%s: %s f64 %d, f32 %d: want f32 nonzero and exactly half", st, counter, charged[0], charged[1])
		}
	}
}

// The batched pipeline's single-precision wire is the slab's: one
// engine, the same narrow and widen bodies (pfft.Passes) around the
// same slab kernels, so pfft.Options{NP: 3, SingleComm} and
// the slab's options with SingleComm (np 1) agree bit for bit through a
// forward+inverse pair — fused and chunked, at the full and the 2/3
// band, on 1, 2 and 4 ranks.
func TestSingleCommMatchesSlabSingle(t *testing.T) {
	const n = 16
	for _, p := range []int{1, 2, 4} {
		for _, kmax := range []int{-1, grid.DealiasKmax(n)} {
			for _, st := range exchange.Concrete {
				if err := mpi.TryRun(p, func(c *mpi.Comm) {
					ref := pfft.NewAsyncSlabReal(c, n, pfft.Options{NP: 1, Granularity: pfft.PerSlab, NGPU: 1, SingleComm: true})
					defer ref.Close()
					a := pfft.NewAsyncSlabReal(c, n, pfft.Options{NP: 3, Exchange: st, SingleComm: true})
					defer a.Close()
					ref.Truncate(kmax)
					a.Truncate(kmax)
					rng := rand.New(rand.NewSource(int64(11 + c.Rank())))
					phys := make([]float64, a.PhysicalLen())
					for i := range phys {
						phys[i] = rng.NormFloat64()
					}
					want, got := make([]complex128, a.FourierLen()), make([]complex128, a.FourierLen())
					ref.PhysicalToFourier(want, phys)
					a.PhysicalToFourier(got, phys)
					for i := range want {
						if !sameBits(got[i], want[i]) {
							panic(fmt.Sprintf("forward [%d] = %v, slab engine %v", i, got[i], want[i]))
						}
					}
					back, ours := make([]float64, a.PhysicalLen()), make([]float64, a.PhysicalLen())
					ref.FourierToPhysical(back, want)
					a.FourierToPhysical(ours, got)
					for i := range back {
						if math.Float64bits(ours[i]) != math.Float64bits(back[i]) {
							panic(fmt.Sprintf("inverse [%d] = %v, slab engine %v", i, ours[i], back[i]))
						}
					}
				}); err != nil {
					t.Fatalf("P=%d kmax=%d %s: %v", p, kmax, st, err)
				}
			}
		}
	}
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}
