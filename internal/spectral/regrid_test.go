package spectral

import (
	"math"
	"testing"

	"repro/internal/mpi"
)

func TestRegridUpsamplePreservesField(t *testing.T) {
	// Spectral interpolation is exact for band-limited fields: the
	// upsampled field evaluated at the coarse grid points... more
	// strongly, energy, dissipation and the spectrum are preserved.
	mpi.Run(2, func(c *mpi.Comm) {
		small := New(c, 16, WithNu(0.02), WithScheme(RK2), WithDealias(Dealias23))
		defer small.Close()
		small.SetRandomIsotropic(3, 0.5, 17)
		big := New(c, 32, WithNu(0.02), WithScheme(RK2), WithDealias(Dealias23))
		defer big.Close()
		Regrid(big, small)
		if math.Abs(big.Energy()-small.Energy()) > 1e-10 {
			t.Errorf("energy changed: %g vs %g", big.Energy(), small.Energy())
		}
		if math.Abs(big.Dissipation()-small.Dissipation()) > 1e-9 {
			t.Errorf("dissipation changed: %g vs %g", big.Dissipation(), small.Dissipation())
		}
		sSmall := small.Spectrum()
		sBig := big.Spectrum()
		for k := 0; k < len(sSmall); k++ {
			if math.Abs(sSmall[k]-sBig[k]) > 1e-12 {
				t.Errorf("E(%d): %g vs %g", k, sSmall[k], sBig[k])
			}
		}
		if d := big.DivergenceMax(); d > 1e-12 {
			t.Errorf("regridded field not solenoidal: %g", d)
		}
	})
}

func TestRegridPhysicalValuesMatchOnCommonPoints(t *testing.T) {
	// Every coarse grid point is also a fine grid point when N2 = 2·N1;
	// the upsampled physical field must take the same values there.
	n1, n2, p := 8, 16, 2
	mpi.Run(p, func(c *mpi.Comm) {
		small := New(c, n1, WithNu(0))
		defer small.Close()
		small.SetTaylorGreen()
		big := New(c, n2, WithNu(0))
		defer big.Close()
		Regrid(big, small)
		// Evaluate both in physical space; gather z-slabs... simpler:
		// compare via the analytic TG formula on the fine grid.
		for comp := 0; comp < 3; comp++ {
			copy(big.work, big.Uh[comp])
			big.tr.FourierToPhysical(big.physU[comp], big.work)
		}
		h := 2 * math.Pi / float64(n2)
		my := big.slab.MY()
		for iy := 0; iy < my; iy++ {
			y := float64(big.slab.YLo()+iy) * h
			for iz := 0; iz < n2; iz++ {
				z := float64(iz) * h
				for ix := 0; ix < n2; ix++ {
					x := float64(ix) * h
					idx := (iy*n2+iz)*n2 + ix
					if math.Abs(big.physU[0][idx]-math.Sin(x)*math.Cos(y)*math.Cos(z)) > 1e-12 {
						t.Fatalf("u mismatch at (%g,%g,%g)", x, y, z)
					}
				}
			}
		}
	})
}

func TestRegridDownsampleTruncates(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		big := New(c, 32, WithNu(0.01))
		defer big.Close()
		big.SetRandomIsotropic(3, 0.5, 23)
		small := New(c, 16, WithNu(0.01))
		defer small.Close()
		Regrid(small, big)
		// Energy of the small grid equals the big grid's energy in the
		// retained band |k_i| < 8.
		sBig := big.Spectrum()
		var eBand float64
		// Sum over shells fully inside the retained cube is not exactly
		// the truncation; instead compare spectra shell-by-shell where
		// the small grid is complete (k < 8/√3 is safely inside).
		sSmall := small.Spectrum()
		for k := 0; k <= 4; k++ {
			if math.Abs(sSmall[k]-sBig[k]) > 1e-12 {
				t.Errorf("E(%d): %g vs %g", k, sSmall[k], sBig[k])
			}
			eBand += sBig[k]
		}
		if small.Energy() > big.Energy() {
			t.Error("downsampling increased energy")
		}
		if d := small.DivergenceMax(); d > 1e-12 {
			t.Errorf("truncated field not solenoidal: %g", d)
		}
	})
}

func TestRegridSameSizeIsCopy(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		a := New(c, 16, WithNu(0.01))
		defer a.Close()
		a.SetRandomIsotropic(3, 0.5, 29)
		b := New(c, 16, WithNu(0.01))
		defer b.Close()
		Regrid(b, a)
		for cc := 0; cc < 3; cc++ {
			for i := range a.Uh[cc] {
				if a.Uh[cc][i] != b.Uh[cc][i] {
					t.Fatalf("copy differs at %d", i)
				}
			}
		}
	})
}

func TestRegridThenContinueIsStable(t *testing.T) {
	// The production pattern: develop at N=16, regrid to 32, keep
	// integrating. Energy must evolve smoothly (no blow-up from bad
	// mode placement).
	mpi.Run(2, func(c *mpi.Comm) {
		small := New(c, 16, WithNu(0.02), WithScheme(RK2), WithDealias(Dealias23))
		defer small.Close()
		small.SetRandomIsotropic(3, 0.5, 41)
		for i := 0; i < 5; i++ {
			small.Step(0.004)
		}
		big := New(c, 32, WithNu(0.02), WithScheme(RK2), WithDealias(Dealias23))
		defer big.Close()
		Regrid(big, small)
		e0 := big.Energy()
		for i := 0; i < 5; i++ {
			big.Step(0.004)
		}
		e1 := big.Energy()
		if math.IsNaN(e1) || e1 > e0 {
			t.Errorf("post-regrid integration unstable: %g → %g", e0, e1)
		}
		if big.StepCount() != 10 {
			t.Errorf("step counter %d, want 10 (5 inherited + 5)", big.StepCount())
		}
	})
}

func TestVorticityEnstrophyConsistency(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0.02))
		defer s.Close()
		s.SetRandomIsotropic(3, 0.5, 47)
		omega := s.Enstrophy()
		check := s.VorticityEnstrophyCheck()
		if rel := math.Abs(omega-check) / omega; rel > 1e-12 {
			t.Errorf("½⟨ω²⟩=%g vs Σk²E=%g (rel %g)", check, omega, rel)
		}
	})
}

func TestVorticityOfTaylorGreen(t *testing.T) {
	// TG vorticity: ω_z(x,y,z) = −2·cos x·cos y·cos z at t=0 ⇒
	// Ω = ½⟨ω²⟩ with ⟨ω_x²⟩=⟨ω_y²⟩=1/8·… compute: ω_x = −cos x sin y sin z·…
	// Known result: Ω = 3/8 for the TG field above… verify against
	// spectral enstrophy instead of hand algebra.
	mpi.Run(1, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0))
		defer s.Close()
		s.SetTaylorGreen()
		// k²=3 for every TG mode ⇒ Ω = k²·E = 3·0.125 = 0.375.
		if math.Abs(s.Enstrophy()-0.375) > 1e-12 {
			t.Errorf("TG enstrophy %g want 0.375", s.Enstrophy())
		}
		if math.Abs(s.VorticityEnstrophyCheck()-0.375) > 1e-12 {
			t.Errorf("vorticity check %g want 0.375", s.VorticityEnstrophyCheck())
		}
	})
}

func TestSuggestDt(t *testing.T) {
	mpi.Run(1, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0.01))
		defer s.Close()
		s.SetTaylorGreen() // u_max = 1
		dt := s.SuggestDt(0.5)
		// CFL = u_max·dt/Δx = dt/(2π/16) = 0.5 ⇒ dt = π/16.
		want := 0.5 * 2 * math.Pi / 16
		if math.Abs(dt-want) > 1e-10 {
			t.Errorf("SuggestDt %g want %g", dt, want)
		}
		if got := s.CFL(dt); math.Abs(got-0.5) > 1e-10 {
			t.Errorf("achieved CFL %g", got)
		}
	})
}
