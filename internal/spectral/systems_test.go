package spectral

import (
	"math"
	"strings"
	"testing"

	"repro/internal/mpi"
)

// TestDecayingNSBitwiseGolden locks the refactored generic stepper to
// energies recorded by the pre-registry hardcoded 3-field stepper
// (same build, immediately before the System refactor): the decaying
// NS system must be bitwise-identical, per scheme and rank count (the
// reduction order in Energy depends on P, hence per-P goldens).
func TestDecayingNSBitwiseGolden(t *testing.T) {
	golden := map[Scheme]map[int][2]float64{
		RK2: {
			1: {0.50000000000000056, 0.493655144870007},
			2: {0.50000000000000022, 0.49365514487000589},
			4: {0.49999999999999978, 0.49365514487000534},
		},
		RK4: {
			1: {0.50000000000000056, 0.49365504200428478},
			2: {0.50000000000000022, 0.49365504200428317},
			4: {0.49999999999999978, 0.49365504200428312},
		},
	}
	for _, scheme := range []Scheme{RK2, RK4} {
		for _, p := range []int{1, 2, 4} {
			want := golden[scheme][p]
			mpi.Run(p, func(c *mpi.Comm) {
				s := New(c, 32, WithNu(0.02), WithScheme(scheme), WithDealias(Dealias23))
				defer s.Close()
				s.SetRandomIsotropic(3, 0.5, 424242)
				e0 := s.Energy()
				for i := 0; i < 5; i++ {
					s.Step(0.004)
				}
				e5 := s.Energy()
				if c.Rank() == 0 {
					if e0 != want[0] || e5 != want[1] {
						t.Errorf("scheme=%v p=%d: e0=%.17g e5=%.17g, want %.17g %.17g",
							scheme, p, e0, e5, want[0], want[1])
					}
				}
			})
		}
	}
}

// TestDecayingNSBitwiseGoldenShift locks the phase-shifted dealiasing
// path the same way.
func TestDecayingNSBitwiseGoldenShift(t *testing.T) {
	golden := map[int]float64{
		1: 0.39828433477605696,
		2: 0.39828433477605718,
	}
	for _, p := range []int{1, 2} {
		want := golden[p]
		mpi.Run(p, func(c *mpi.Comm) {
			s := New(c, 16, WithNu(0.01), WithScheme(RK2), WithDealias(Dealias23Shift))
			defer s.Close()
			s.SetRandomIsotropic(2.5, 0.4, 7)
			for i := 0; i < 4; i++ {
				s.Step(0.005)
			}
			e4 := s.Energy()
			if c.Rank() == 0 && e4 != want {
				t.Errorf("p=%d: e4=%.17g, want %.17g", p, e4, want)
			}
		})
	}
}

// TestSystemRegistry checks the day-one registrations and the
// unknown-name error message a CLI relays to the user.
func TestSystemRegistry(t *testing.T) {
	names := Systems()
	for _, want := range []string{"ns", "forced-ns", "rotating-scalar"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("system %q not registered (have %v)", want, names)
		}
		if SystemCode(want) < 0 {
			t.Errorf("SystemCode(%q) < 0", want)
		}
	}
	if _, err := NewNamedSystem("mhd", SystemSpec{}); err == nil {
		t.Error("expected error for unregistered system")
	} else if !strings.Contains(err.Error(), "forced-ns") {
		t.Errorf("unknown-system error should list registrations, got: %v", err)
	}
}

// TestForcedNSStationaryBudget drives forced turbulence to statistical
// stationarity and checks the energy budget: the prescribed injection
// rate must balance viscous dissipation within tolerance over an
// averaging window, and energy must neither decay away nor blow up.
func TestForcedNSStationaryBudget(t *testing.T) {
	for _, p := range []int{1, 4} {
		mpi.Run(p, func(c *mpi.Comm) {
			const eps = 0.08
			s := New(c, 32,
				WithNu(0.05),
				WithScheme(RK2),
				WithDealias(Dealias23),
				WithForcing(2, eps),
				WithForcingNoise(1.0, 99),
			)
			defer s.Close()
			s.SetRandomIsotropic(3, 0.3, 11)
			dt := 0.01
			// Transient: let the spectrum equilibrate.
			for i := 0; i < 150; i++ {
				s.Step(dt)
			}
			e1 := s.Energy()
			var dissSum float64
			const window = 100
			for i := 0; i < window; i++ {
				s.Step(dt)
				dissSum += s.Dissipation()
			}
			e2 := s.Energy()
			diss := dissSum / window
			// Exact discrete budget: injection − dissipation ≈ dE/dt.
			balance := eps - diss - (e2-e1)/(float64(window)*dt)
			if c.Rank() == 0 {
				if math.Abs(balance) > 0.25*eps {
					t.Errorf("p=%d: budget residual %.3g vs injection %.3g (diss=%.3g, dE=%.3g)",
						p, balance, eps, diss, e2-e1)
				}
				if e2 < 0.05 || e2 > 5 {
					t.Errorf("p=%d: energy not stationary: %.3g", p, e2)
				}
				if math.IsNaN(e2) {
					t.Errorf("p=%d: energy is NaN", p)
				}
			}
		})
	}
}

// TestForcedNSRankCountIndependence checks that the seeded phase walk
// is keyed by global mode index: the forced trajectory must not depend
// on the rank count.
func TestForcedNSRankCountIndependence(t *testing.T) {
	energies := map[int]float64{}
	for _, p := range []int{1, 2, 4} {
		mpi.Run(p, func(c *mpi.Comm) {
			s := New(c, 16,
				WithNu(0.02),
				WithDealias(Dealias23),
				WithForcing(2, 0.05),
				WithForcingNoise(0.5, 7),
			)
			defer s.Close()
			s.SetRandomIsotropic(2.5, 0.3, 5)
			for i := 0; i < 10; i++ {
				s.Step(0.005)
			}
			e := s.Energy()
			if c.Rank() == 0 {
				energies[p] = e
			}
		})
	}
	for _, p := range []int{2, 4} {
		if math.Abs(energies[p]-energies[1]) > 1e-12 {
			t.Errorf("forced trajectory depends on rank count: E(p=%d)=%.17g E(p=1)=%.17g",
				p, energies[p], energies[1])
		}
	}
}

// TestScalarDissipationBudget advances a decaying passive scalar inside
// the rotating-scalar system and checks the variance budget
// d⟨θ²⟩/dt = −2χ over a step (trapezoid in time).
func TestScalarDissipationBudget(t *testing.T) {
	for _, p := range []int{1, 4} {
		mpi.Run(p, func(c *mpi.Comm) {
			s := New(c, 32,
				WithNu(0.02),
				WithScheme(RK2),
				WithDealias(Dealias23),
				WithScalars(1, 0.7),
			)
			defer s.Close()
			if got := s.Fields(); got != 4 {
				t.Errorf("fields=%d, want 4", got)
			}
			s.SetRandomIsotropic(3, 0.5, 21)
			s.SetFieldBlob(3, 3, 1.0, 33)
			dt := 0.004
			for i := 0; i < 3; i++ {
				s.Step(dt) // settle transients of the discrete scheme
			}
			v1 := s.FieldVariance(3)
			chi1 := s.FieldDissipation(3)
			s.Step(dt)
			v2 := s.FieldVariance(3)
			chi2 := s.FieldDissipation(3)
			lhs := (v2 - v1) / dt
			rhs := -(chi1 + chi2) // −2χ, trapezoid average
			if c.Rank() == 0 {
				if v2 <= 0 || v2 >= v1 {
					t.Errorf("p=%d: scalar variance not decaying: %g -> %g", p, v1, v2)
				}
				if math.Abs(lhs-rhs) > 0.05*math.Abs(rhs) {
					t.Errorf("p=%d: variance budget: d⟨θ²⟩/dt=%.6g, −2χ=%.6g", p, lhs, rhs)
				}
			}
		})
	}
}

// TestScalarMeanGradientProduction checks the stationary-mixing device:
// with an imposed mean gradient, scalar variance grows from zero by
// production −G⟨u_yθ⟩ rather than decaying.
func TestScalarMeanGradientProduction(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16,
			WithNu(0.02),
			WithDealias(Dealias23),
			WithScalars(1, 1.0),
			WithScalarGradient(2.0),
		)
		defer s.Close()
		s.SetRandomIsotropic(2.5, 0.5, 3)
		for i := 0; i < 20; i++ {
			s.Step(0.005)
		}
		v := s.FieldVariance(3)
		if c.Rank() == 0 {
			if !(v > 1e-6) {
				t.Errorf("mean-gradient production failed to generate scalar variance: %g", v)
			}
		}
	})
}

// TestRotationInviscidEnergyConservation checks that the Coriolis term
// does no work: with ν=0 and the dealiased Galerkin-truncated
// nonlinear term, total kinetic energy is conserved to scheme accuracy
// even at strong rotation.
func TestRotationInviscidEnergyConservation(t *testing.T) {
	for _, p := range []int{1, 4} {
		mpi.Run(p, func(c *mpi.Comm) {
			s := New(c, 32,
				WithNu(0),
				WithScheme(RK4),
				WithDealias(Dealias23),
				WithRotation(4.0),
			)
			defer s.Close()
			s.SetRandomIsotropic(3, 0.5, 77)
			e0 := s.Energy()
			for i := 0; i < 10; i++ {
				s.Step(0.002)
			}
			e1 := s.Energy()
			div := s.DivergenceMax()
			if c.Rank() == 0 {
				if rel := math.Abs(e1-e0) / e0; rel > 1e-9 {
					t.Errorf("p=%d: inviscid rotating energy drift %.3g (E %.15g -> %.15g)", p, rel, e0, e1)
				}
				if div > 1e-10 {
					t.Errorf("p=%d: divergence %.3g after rotating steps", p, div)
				}
			}
		})
	}
}

// TestRotationAnisotropyDiagnostic checks the system's Diagnostics
// wiring: the anisotropy measure is reported and stays a small number
// for short times (it starts at ≈0 for an isotropic field).
func TestRotationAnisotropyDiagnostic(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0.01), WithDealias(Dealias23), WithRotation(2.0), WithScalars(1))
		defer s.Close()
		s.SetRandomIsotropic(2.5, 0.4, 13)
		s.SetFieldBlob(3, 2.5, 0.5, 14)
		for i := 0; i < 5; i++ {
			s.Step(0.005)
		}
		diags := s.SystemDiagnostics()
		if c.Rank() != 0 {
			return
		}
		got := map[string]float64{}
		for _, d := range diags {
			got[d.Name] = d.Value
		}
		for _, name := range []string{"energy", "dissipation", "rotation.rate", "anisotropy.bzz", "scalar.variance"} {
			if _, ok := got[name]; !ok {
				t.Errorf("diagnostic %q missing (have %v)", name, diags)
			}
		}
		if got["rotation.rate"] != 2.0 {
			t.Errorf("rotation.rate=%g, want 2", got["rotation.rate"])
		}
		if math.Abs(got["anisotropy.bzz"]) > 0.5 {
			t.Errorf("anisotropy.bzz=%g out of range", got["anisotropy.bzz"])
		}
	})
}

// TestSystemGauge checks that construction publishes the solver.system
// gauge used to label step spans in metrics snapshots.
func TestSystemGauge(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		c.Metrics().SetOn(true)
		s := New(c, 16, WithNu(0.01), WithRotation(1.0))
		defer s.Close()
		_ = s
		g := c.Metrics().GaugeRank("solver.system", c.Rank()).Value()
		if int(g) != SystemCode("rotating-scalar") {
			t.Errorf("solver.system gauge = %v, want %d", g, SystemCode("rotating-scalar"))
		}
	})
}
