package spectral

import (
	"math"
	"testing"

	"repro/internal/mpi"
)

func TestABCFlowFieldValues(t *testing.T) {
	// Pointwise check against the analytic ABC formulas.
	n := 16
	a, b, c := 1.0, 0.7, 0.4
	mpi.Run(2, func(cm *mpi.Comm) {
		s := New(cm, n, WithNu(0))
		defer s.Close()
		s.SetABCFlow(a, b, c)
		s.syncPhysical()
		h := 2 * math.Pi / float64(n)
		my := s.slab.MY()
		for iy := 0; iy < my; iy++ {
			y := float64(s.slab.YLo()+iy) * h
			for iz := 0; iz < n; iz++ {
				z := float64(iz) * h
				for ix := 0; ix < n; ix++ {
					x := float64(ix) * h
					idx := (iy*n+iz)*n + ix
					wantU := a*math.Sin(z) + c*math.Cos(y)
					wantV := b*math.Sin(x) + a*math.Cos(z)
					wantW := c*math.Sin(y) + b*math.Cos(x)
					if math.Abs(s.physU[0][idx]-wantU) > 1e-12 ||
						math.Abs(s.physU[1][idx]-wantV) > 1e-12 ||
						math.Abs(s.physU[2][idx]-wantW) > 1e-12 {
						t.Fatalf("(%g,%g,%g): got (%g,%g,%g) want (%g,%g,%g)",
							x, y, z, s.physU[0][idx], s.physU[1][idx], s.physU[2][idx],
							wantU, wantV, wantW)
					}
				}
			}
		}
	})
}

func TestABCFlowIsBeltrami(t *testing.T) {
	// ω = u for the unit-wavenumber ABC field: H = 2E and Ω = E.
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0))
		defer s.Close()
		s.SetABCFlow(1, 0.8, 0.6)
		e := s.Energy()
		hel := s.Helicity()
		om := s.Enstrophy()
		if math.Abs(hel-2*e) > 1e-12*e {
			t.Errorf("H=%g want 2E=%g", hel, 2*e)
		}
		if math.Abs(om-e) > 1e-12*e {
			t.Errorf("Ω=%g want E=%g", om, e)
		}
		// Divergence-free by construction.
		if d := s.DivergenceMax(); d > 1e-14 {
			t.Errorf("divergence %g", d)
		}
	})
}

func TestABCFlowExactNavierStokesDecay(t *testing.T) {
	// The Beltrami property makes u(t) = u(0)·e^{−νt} an exact solution
	// of the FULL nonlinear Navier–Stokes equations. The solver, with
	// its complete nonlinear term active, must reproduce the decay to
	// integrator accuracy — this exercises transforms, products,
	// projection and time stepping end to end at finite amplitude.
	nu := 0.05
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(nu), WithScheme(RK2), WithDealias(Dealias23))
		defer s.Close()
		s.SetABCFlow(1, 0.9, 0.8)
		e0 := s.Energy()
		dt := 0.01
		steps := 30
		for i := 0; i < steps; i++ {
			s.Step(dt)
		}
		want := e0 * math.Exp(-2*nu*float64(steps)*dt)
		got := s.Energy()
		if rel := math.Abs(got-want) / want; rel > 1e-8 {
			t.Errorf("ABC decay: got %.12g want %.12g (rel %g)", got, want, rel)
		}
		// The flow shape is preserved: still Beltrami.
		if hel := s.Helicity(); math.Abs(hel-2*got) > 1e-9*got {
			t.Errorf("helicity drifted: H=%g vs 2E=%g", hel, 2*got)
		}
	})
}

func TestABCFlowDecayOnAsyncEngineMatches(t *testing.T) {
	// The same exactness must hold through the asynchronous pipeline —
	// run via the public Transform seam used by the DNS benchmarks.
	nu := 0.05
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(nu), WithScheme(RK4), WithDealias(Dealias23))
		defer s.Close()
		s.SetABCFlow(0.5, 0.5, 0.5)
		e0 := s.Energy()
		for i := 0; i < 10; i++ {
			s.Step(0.01)
		}
		want := e0 * math.Exp(-2*nu*0.1)
		if rel := math.Abs(s.Energy()-want) / want; rel > 1e-10 {
			t.Errorf("RK4 ABC decay rel err %g", rel)
		}
	})
}

func TestTaylorGreenHasZeroHelicity(t *testing.T) {
	mpi.Run(1, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0))
		defer s.Close()
		s.SetTaylorGreen()
		if h := s.Helicity(); math.Abs(h) > 1e-13 {
			t.Errorf("TG helicity %g, want 0 (mirror-symmetric flow)", h)
		}
	})
}
