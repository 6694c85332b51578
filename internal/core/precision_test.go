package core

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/mpi"
	"repro/internal/pfft"
	"repro/internal/spectral"
)

func TestSingleCommAccuracy(t *testing.T) {
	// The single-precision wire format must agree with the float64
	// reference to single-precision rounding (~1e-6 relative).
	n, p := 16, 2
	for _, gran := range []Granularity{PerPencil, PerSlab} {
		mpi.Run(p, func(c *mpi.Comm) {
			ref := pfft.NewSlabReal(c, n)
			sgl := NewAsyncSlabReal(c, n, Options{NP: 4, Granularity: gran, SingleComm: true})
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
		a := NewAsyncSlabReal(c, 8, Options{NP: 3, Granularity: PerPencil, SingleComm: true})
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
		tr := NewAsyncSlabReal(c, 16, Options{NP: 3, Granularity: PerSlab, SingleComm: true})
		defer tr.Close()
		s := spectral.New(c, 16, spectral.WithNu(0.02), spectral.WithScheme(spectral.RK2),
			spectral.WithDealias(spectral.Dealias23), spectral.WithTransform(tr))
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

func TestSingleCommHalvesWireBytes(t *testing.T) {
	// Structural check: staging buffers are complex64, i.e. half the
	// footprint of the double-precision path.
	mpi.Run(1, func(c *mpi.Comm) {
		dbl := NewAsyncSlabReal(c, 8, Options{NP: 2})
		sgl := NewAsyncSlabReal(c, 8, Options{NP: 2, SingleComm: true})
		defer dbl.Close()
		defer sgl.Close()
		send32, sendAll := sgl.wire.(*wireBuf[complex64]).send, dbl.wire.(*wireBuf[complex128]).send
		if len(send32) != len(sendAll) {
			t.Fatalf("element counts differ: %d vs %d", len(send32), len(sendAll))
		}
		// complex64 = 8 bytes vs complex128 = 16.
		if 8*len(send32) != 16*len(sendAll)/2 {
			t.Error("wire bytes not halved")
		}
	})
}
