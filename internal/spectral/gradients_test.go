package spectral

import (
	"math"
	"testing"

	"repro/internal/mpi"
)

func TestGradientOfSingleModeIsExact(t *testing.T) {
	// u = a·cos(2x+2y) for the solenoidal mode k=(2,2,0), a ⟂ k:
	// ∂u/∂x has variance kx²·⟨u²⟩ and zero skewness (sinusoid).
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0))
		defer s.Close()
		amp := 0.4
		s.SetSingleMode(2, 2, 0, [3]complex128{complex(amp, 0), complex(-amp, 0), 0})
		u := s.VelocityMoments(0)
		g := s.LongitudinalGradientStats(0) // ∂u/∂x
		if math.Abs(g.Variance-4*u.Variance) > 1e-12 {
			t.Errorf("gradient variance %g want %g", g.Variance, 4*u.Variance)
		}
		if math.Abs(g.Skewness) > 1e-8 {
			t.Errorf("sinusoid skewness %g", g.Skewness)
		}
		// Flatness of a sinusoid is 1.5.
		if math.Abs(g.Flatness-1.5) > 1e-8 {
			t.Errorf("sinusoid flatness %g want 1.5", g.Flatness)
		}
	})
}

func TestGradientMeanIsZero(t *testing.T) {
	// Periodic fields have exactly zero mean gradient.
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0.02))
		defer s.Close()
		s.SetRandomIsotropic(3, 0.5, 19)
		for comp := 0; comp < 3; comp++ {
			g := s.LongitudinalGradientStats(comp)
			if math.Abs(g.Mean) > 1e-12 {
				t.Errorf("component %d: mean gradient %g", comp, g.Mean)
			}
		}
	})
}

func TestDevelopedTurbulenceHasNegativeSkewness(t *testing.T) {
	// The hallmark of the energy cascade: after the field develops,
	// longitudinal gradients are negatively skewed (≈ −0.3…−0.6) and
	// the flatness exceeds the Gaussian value 3 (intermittency).
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 32, WithNu(0.01), WithScheme(RK2), WithDealias(Dealias23),
			WithForcing(2, DefaultForcingEps))
		defer s.Close()
		s.SetRandomIsotropic(2.5, 0.6, 4)
		for i := 0; i < 40; i++ {
			s.Step(0.004)
		}
		var sk, fl float64
		for comp := 0; comp < 3; comp++ {
			g := s.LongitudinalGradientStats(comp)
			sk += g.Skewness / 3
			fl += g.Flatness / 3
		}
		if c.Rank() == 0 {
			if sk >= -0.1 || sk < -1.0 {
				t.Errorf("mean longitudinal skewness %.3f, expected ≈ −0.3…−0.6", sk)
			}
			if fl < 2.8 {
				t.Errorf("mean flatness %.2f, expected ≥ ≈3 in developed turbulence", fl)
			}
		}
	})
}

func TestTaylorScaleCrossCheck(t *testing.T) {
	// λ from gradients must agree with the spectral estimate for
	// isotropic fields within statistical isotropy error.
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 32, WithNu(0.02), WithScheme(RK2), WithDealias(Dealias23))
		defer s.Close()
		s.SetRandomIsotropic(3, 0.5, 8)
		for i := 0; i < 5; i++ {
			s.Step(0.004)
		}
		// λ² = ⟨u²⟩/⟨(∂u/∂x)²⟩ from its definition.
		lamG := math.Sqrt(s.VelocityMoments(0).Variance / s.LongitudinalGradientStats(0).Variance)
		lamS := s.Statistics().TaylorScale
		if rel := math.Abs(lamG-lamS) / lamS; rel > 0.25 {
			t.Errorf("Taylor scales disagree: gradients %.4f spectral %.4f (rel %.2f)", lamG, lamS, rel)
		}
	})
}

func TestGradientStatsRankIndependent(t *testing.T) {
	get := func(p int) GradientStats {
		var out GradientStats
		mpi.Run(p, func(c *mpi.Comm) {
			s := New(c, 16, WithNu(0.02))
			defer s.Close()
			s.SetRandomIsotropic(3, 0.5, 31)
			g := s.LongitudinalGradientStats(0)
			if c.Rank() == 0 {
				out = g
			}
		})
		return out
	}
	a, b := get(1), get(4)
	if math.Abs(a.Variance-b.Variance) > 1e-12*a.Variance ||
		math.Abs(a.Skewness-b.Skewness) > 1e-9 ||
		math.Abs(a.Min-b.Min) > 1e-12 || math.Abs(a.Max-b.Max) > 1e-12 {
		t.Errorf("gradient stats depend on rank count: %+v vs %+v", a, b)
	}
}
