package spectral

import (
	"math"
	"math/cmplx"
	"sync"
	"testing"

	"repro/internal/mpi"
)

func TestTaylorGreenFieldInPhysicalSpace(t *testing.T) {
	n, p := 16, 2
	mpi.Run(p, func(c *mpi.Comm) {
		s := New(c, n, WithNu(0.1))
		defer s.Close()
		s.SetTaylorGreen()
		// Transform to physical space and compare pointwise.
		h := 2 * math.Pi / float64(n)
		for comp := 0; comp < 3; comp++ {
			copy(s.work, s.Uh[comp])
			s.tr.FourierToPhysical(s.physU[comp], s.work)
		}
		my := s.slab.MY()
		for iy := 0; iy < my; iy++ {
			y := float64(s.slab.YLo()+iy) * h
			for iz := 0; iz < n; iz++ {
				z := float64(iz) * h
				for ix := 0; ix < n; ix++ {
					x := float64(ix) * h
					idx := (iy*n+iz)*n + ix
					wantU := math.Sin(x) * math.Cos(y) * math.Cos(z)
					wantV := -math.Cos(x) * math.Sin(y) * math.Cos(z)
					if math.Abs(s.physU[0][idx]-wantU) > 1e-12 {
						t.Fatalf("u(%g,%g,%g)=%g want %g", x, y, z, s.physU[0][idx], wantU)
					}
					if math.Abs(s.physU[1][idx]-wantV) > 1e-12 {
						t.Fatalf("v(%g,%g,%g)=%g want %g", x, y, z, s.physU[1][idx], wantV)
					}
					if math.Abs(s.physU[2][idx]) > 1e-12 {
						t.Fatalf("w nonzero: %g", s.physU[2][idx])
					}
				}
			}
		}
	})
}

func TestTaylorGreenEnergy(t *testing.T) {
	// ⟨u²⟩ = ⟨v²⟩ = 1/8 each ⇒ E = ½(1/8+1/8) = 1/8.
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0))
		defer s.Close()
		s.SetTaylorGreen()
		if e := s.Energy(); math.Abs(e-0.125) > 1e-12 {
			t.Errorf("TG energy %g want 0.125", e)
		}
	})
}

func TestSingleModeViscousDecayIsExact(t *testing.T) {
	// With a vanishing-amplitude mode the nonlinear term is negligible
	// and the integrating factor must give exp(−νk²t) decay exactly.
	n := 8
	nu := 0.05
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, n, WithNu(nu), WithScheme(RK2), WithDealias(DealiasNone))
		defer s.Close()
		amp := 1e-6
		// k = (1,2,1); amplitude ⊥ k: a = (2,-1,0).
		s.SetSingleMode(1, 2, 1, [3]complex128{complex(2*amp, 0), complex(-amp, 0), 0})
		e0 := s.Energy()
		dt := 0.01
		steps := 20
		for i := 0; i < steps; i++ {
			s.Step(dt)
		}
		k2 := 1.0 + 4.0 + 1.0
		want := e0 * math.Exp(-2*nu*k2*float64(steps)*dt)
		got := s.Energy()
		if rel := math.Abs(got-want) / want; rel > 1e-9 {
			t.Errorf("decay: got %g want %g rel err %g", got, want, rel)
		}
	})
}

func TestDivergenceFreeInvariant(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0.02), WithScheme(RK2), WithDealias(Dealias23))
		defer s.Close()
		s.SetRandomIsotropic(3, 0.5, 42)
		if d := s.DivergenceMax(); d > 1e-12 {
			t.Fatalf("initial divergence %g", d)
		}
		for i := 0; i < 5; i++ {
			s.Step(0.005)
		}
		if d := s.DivergenceMax(); d > 1e-10 {
			t.Errorf("divergence after steps %g", d)
		}
	})
}

func TestNonlinearTermConservesEnergy(t *testing.T) {
	// The projected, dealiased convolution satisfies Σ Re(û*·N̂) = 0:
	// the nonlinear term only transfers energy between scales.
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0.01), WithScheme(RK2), WithDealias(Dealias23))
		defer s.Close()
		s.SetRandomIsotropic(3, 1.0, 7)
		tr := s.NonlinearEnergyTransfer()
		e := s.Energy()
		if math.Abs(tr) > 1e-10*e {
			t.Errorf("nonlinear transfer %g not ≈ 0 (E=%g)", tr, e)
		}
	})
}

func TestEnergyBalance(t *testing.T) {
	// Unforced: dE/dt = −ε. Integrate a short step and compare.
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0.05), WithScheme(RK4), WithDealias(Dealias23))
		defer s.Close()
		s.SetRandomIsotropic(3, 0.5, 11)
		e0 := s.Energy()
		eps0 := s.Dissipation()
		dt := 1e-3
		s.Step(dt)
		e1 := s.Energy()
		dEdt := (e1 - e0) / dt
		if rel := math.Abs(dEdt+eps0) / eps0; rel > 0.02 {
			t.Errorf("dE/dt=%g want −ε=%g (rel %g)", dEdt, -eps0, rel)
		}
	})
}

func TestRankCountIndependence(t *testing.T) {
	// The same IC run on 1, 2 and 4 ranks must produce identical
	// energies after identical steps.
	n := 16
	results := map[int]float64{}
	var mu sync.Mutex
	for _, p := range []int{1, 2, 4} {
		p := p
		mpi.Run(p, func(c *mpi.Comm) {
			s := New(c, n, WithNu(0.02), WithScheme(RK2), WithDealias(Dealias23))
			defer s.Close()
			s.SetRandomIsotropic(3, 0.5, 99)
			for i := 0; i < 3; i++ {
				s.Step(0.005)
			}
			e := s.Energy()
			if c.Rank() == 0 {
				mu.Lock()
				results[p] = e
				mu.Unlock()
			}
		})
	}
	for _, p := range []int{2, 4} {
		if math.Abs(results[p]-results[1]) > 1e-12*results[1] {
			t.Errorf("P=%d energy %.15g differs from P=1 %.15g", p, results[p], results[1])
		}
	}
}

func TestRK4MoreAccurateThanRK2(t *testing.T) {
	// Against a fine-dt RK4 reference, RK4 at coarse dt must beat RK2
	// at the same coarse dt.
	n := 8
	run := func(scheme Scheme, dt float64, steps int) float64 {
		var e float64
		mpi.Run(1, func(c *mpi.Comm) {
			s := New(c, n, WithNu(0.05), WithScheme(scheme), WithDealias(Dealias23))
			defer s.Close()
			s.SetTaylorGreen()
			for i := 0; i < steps; i++ {
				s.Step(dt)
			}
			e = s.Energy()
		})
		return e
	}
	tEnd := 0.4
	ref := run(RK4, tEnd/64, 64)
	e2 := run(RK2, tEnd/8, 8)
	e4 := run(RK4, tEnd/8, 8)
	err2 := math.Abs(e2 - ref)
	err4 := math.Abs(e4 - ref)
	if err4 >= err2 {
		t.Errorf("RK4 error %g not smaller than RK2 error %g", err4, err2)
	}
}

func TestRK2SecondOrderConvergence(t *testing.T) {
	n := 8
	run := func(dt float64, steps int) float64 {
		var e float64
		mpi.Run(1, func(c *mpi.Comm) {
			s := New(c, n, WithNu(0.05), WithScheme(RK2), WithDealias(Dealias23))
			defer s.Close()
			s.SetTaylorGreen()
			for i := 0; i < steps; i++ {
				s.Step(dt)
			}
			e = s.Energy()
		})
		return e
	}
	tEnd := 0.4
	ref := run(tEnd/256, 256)
	errA := math.Abs(run(tEnd/8, 8) - ref)
	errB := math.Abs(run(tEnd/16, 16) - ref)
	order := math.Log2(errA / errB)
	if order < 1.6 || order > 2.6 {
		t.Errorf("RK2 observed order %g, want ≈2 (errA=%g errB=%g)", order, errA, errB)
	}
}

func TestForcingSustainsEnergy(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0.08), WithScheme(RK2), WithDealias(Dealias23), WithForcing(2, 0))
		defer s.Close()
		s.SetRandomIsotropic(2, 0.5, 5)
		// Inject what viscosity removes.
		s.System().(*ForcedNS).Forcing().Eps = s.Dissipation()
		e1 := s.Energy()
		for i := 0; i < 10; i++ {
			s.Step(0.002)
		}
		e2 := s.Energy()
		// Forced low-k shells hold the bulk of the energy; the total
		// must not decay the way the unforced case does.
		if e2 < 0.8*e1 {
			t.Errorf("forced run decayed: %g → %g", e1, e2)
		}
	})
}

func TestUnforcedDecays(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0.08), WithScheme(RK2), WithDealias(Dealias23))
		defer s.Close()
		s.SetRandomIsotropic(2, 0.5, 5)
		e1 := s.Energy()
		for i := 0; i < 10; i++ {
			s.Step(0.002)
		}
		if e2 := s.Energy(); e2 >= e1 {
			t.Errorf("unforced run did not decay: %g → %g", e1, e2)
		}
	})
}

func TestSpectrumSingleShell(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0))
		defer s.Close()
		amp := 0.3
		s.SetSingleMode(3, 0, 0, [3]complex128{0, complex(amp, 0), 0})
		spec := s.Spectrum()
		e := s.Energy()
		// All energy in shell 3.
		if math.Abs(spec[3]-e) > 1e-12 {
			t.Errorf("E(3)=%g total %g", spec[3], e)
		}
		for k, v := range spec {
			if k != 3 && v != 0 {
				t.Errorf("E(%d)=%g want 0", k, v)
			}
		}
		// |û|=amp at ±k ⇒ ⟨v²⟩=2·amp² ⇒ E = amp².
		if want := amp * amp; math.Abs(e-want) > 1e-12 {
			t.Errorf("energy %g want %g", e, want)
		}
	})
}

func TestStatisticsConsistency(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0.03))
		defer s.Close()
		s.SetRandomIsotropic(3, 0.6, 21)
		st := s.Statistics()
		if math.Abs(st.Energy-0.6) > 1e-9 {
			t.Errorf("energy %g want 0.6", st.Energy)
		}
		if math.Abs(st.URMS-math.Sqrt(2*st.Energy/3)) > 1e-12 {
			t.Errorf("urms inconsistent")
		}
		if st.Dissipation <= 0 || st.Enstrophy <= 0 {
			t.Errorf("nonpositive dissipation/enstrophy")
		}
		// ε = 2νΩ for solenoidal fields.
		if rel := math.Abs(st.Dissipation-2*s.cfg.Nu*st.Enstrophy) / st.Dissipation; rel > 1e-12 {
			t.Errorf("ε ≠ 2νΩ (rel %g)", rel)
		}
		if st.ReLambda <= 0 || math.IsNaN(st.ReLambda) {
			t.Errorf("bad ReLambda %g", st.ReLambda)
		}
	})
}

func TestPhaseShiftDealiasCloseToTruncation(t *testing.T) {
	// When 3 ∤ N the 2/3 truncation at ⌊N/3⌋ is alias-free (N > 3·kmax),
	// so the grid phase shift changes nothing but rounding: the two
	// dealiasing modes must give the same fields to within a few ulps
	// after 20 steps. N is not a multiple of 3 because then kmax = N/3
	// and a pair with p_i + q_i = 2N/3 aliases onto the kept plane
	// |k_i| = N/3, which only the shift removes.
	for _, n := range []int{16, 32} {
		for _, p := range []int{1, 2} {
			var diff, scale float64
			mpi.Run(p, func(c *mpi.Comm) {
				run := func(d Dealias) *Solver {
					s := New(c, n, WithNu(0.03), WithScheme(RK2), WithDealias(d))
					s.SetRandomIsotropic(2.5, 0.4, 13)
					for i := 0; i < 20; i++ {
						s.Step(0.004)
					}
					return s
				}
				tr, sh := run(Dealias23), run(Dealias23Shift)
				defer tr.Close()
				defer sh.Close()
				m := []float64{0, 0}
				for comp := 0; comp < 3; comp++ {
					for i, u := range tr.Uh[comp] {
						m[0] = math.Max(m[0], cmplx.Abs(u-sh.Uh[comp][i]))
						m[1] = math.Max(m[1], cmplx.Abs(u))
					}
				}
				mpi.AllreduceMax(c, m)
				if c.Rank() == 0 {
					diff, scale = m[0], m[1]
				}
			})
			if diff > 1e-14*scale {
				t.Errorf("N=%d P=%d: truncation and shift differ by max|Δû| = %g, %g of max|û|", n, p, diff, diff/scale)
			}
		}
	}
}

func TestCFLPositive(t *testing.T) {
	mpi.Run(1, func(c *mpi.Comm) {
		s := New(c, 8, WithNu(0.01))
		defer s.Close()
		s.SetTaylorGreen()
		cfl := s.CFL(0.01)
		// u_max = 1 for TG, Δx = 2π/8 ⇒ CFL = 0.01/(2π/8).
		want := 0.01 / (2 * math.Pi / 8)
		if math.Abs(cfl-want) > 1e-10 {
			t.Errorf("CFL %g want %g", cfl, want)
		}
	})
}

func TestSolverPanicsOnOddN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	mpi.Run(1, func(c *mpi.Comm) {
		New(c, 7, WithNu(0.1))
	})
}
