package spectral

import (
	"math"
	"sync"
	"testing"

	"repro/internal/mpi"
)

// Passive scalars are fields 3… of the rotating-scalar system; these
// tests pin the scalar physics on the one stepping path.

func TestScalarPureDiffusionIsExact(t *testing.T) {
	// With zero velocity the scalar obeys ∂θ/∂t = κ∇²θ exactly:
	// a single mode decays as exp(−κk²t) via the integrating factor.
	n := 16
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, n, WithNu(0.1), WithScheme(RK2), WithDealias(Dealias23), WithScalars(1, 2.5))
		defer s.Close()
		kappa := s.System().Diffusivity(3) // ν/Sc = 0.04
		s.SetFieldSingleMode(3, 2, 1, -1, complex(0.5, 0.25))
		v0 := s.FieldVariance(3)
		dt := 0.01
		steps := 15
		for i := 0; i < steps; i++ {
			s.Step(dt)
		}
		k2 := 4.0 + 1.0 + 1.0
		want := v0 * math.Exp(-2*kappa*k2*float64(steps)*dt)
		got := s.FieldVariance(3)
		if rel := math.Abs(got-want) / want; rel > 1e-9 {
			t.Errorf("diffusion decay: got %g want %g (rel %g)", got, want, rel)
		}
	})
}

func TestScalarAdvectionConservesVariance(t *testing.T) {
	// With κ=0 (Sc=+Inf), advection by an incompressible field only
	// rearranges θ: the dealiased Galerkin system conserves ⟨θ²⟩ up to
	// time discretization error (O(dt²) per step for Heun).
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0.01), WithScheme(RK2), WithDealias(Dealias23), WithScalars(1, math.Inf(1)))
		defer s.Close()
		if kappa := s.System().Diffusivity(3); kappa != 0 {
			t.Fatalf("Sc=+Inf gave κ=%g", kappa)
		}
		s.SetTaylorGreen()
		s.SetFieldBlob(3, 2.5, 1.0, 3)
		v0 := s.FieldVariance(3)
		dt := 1e-3
		for i := 0; i < 10; i++ {
			s.Step(dt)
		}
		v1 := s.FieldVariance(3)
		if rel := math.Abs(v1-v0) / v0; rel > 1e-5 {
			t.Errorf("variance drift %g over 10 non-diffusive steps", rel)
		}
	})
}

func TestScalarDecayBalancesDissipation(t *testing.T) {
	// Unforced: d⟨θ²⟩/dt = −2χ with χ = κ⟨|∇θ|²⟩ as FieldDissipation
	// returns it. Check numerically over one small step.
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0.03), WithScheme(RK2), WithDealias(Dealias23), WithScalars(1, 0.6))
		defer s.Close()
		s.SetRandomIsotropic(3, 0.4, 5)
		s.SetFieldBlob(3, 3, 0.8, 9)
		v0 := s.FieldVariance(3)
		chi := s.FieldDissipation(3)
		dt := 5e-4
		s.Step(dt)
		v1 := s.FieldVariance(3)
		dVdt := (v1 - v0) / dt
		if rel := math.Abs(dVdt+2*chi) / (2 * chi); rel > 0.05 {
			t.Errorf("variance balance: d⟨θ²⟩/dt=%g want %g (rel %g)", dVdt, -2*chi, rel)
		}
	})
}

func TestScalarSpectrumSumsToHalfVariance(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0.02), WithScalars(1, 2))
		defer s.Close()
		s.SetFieldBlob(3, 3, 0.6, 13)
		var sum float64
		for _, e := range s.Spectrum(3) {
			sum += e
		}
		v := s.FieldVariance(3)
		if math.Abs(sum-v/2) > 1e-10*v {
			t.Errorf("ΣE_θ=%g vs ⟨θ²⟩/2=%g", sum, v/2)
		}
	})
}

func TestScalarRankCountIndependence(t *testing.T) {
	results := map[int]float64{}
	var mu sync.Mutex
	for _, p := range []int{1, 2, 4} {
		p := p
		mpi.Run(p, func(c *mpi.Comm) {
			s := New(c, 16, WithNu(0.02), WithScheme(RK2), WithDealias(Dealias23), WithScalars(1, 2.0/3.0))
			defer s.Close()
			s.SetRandomIsotropic(3, 0.5, 21)
			s.SetFieldBlob(3, 2.5, 0.7, 22)
			for i := 0; i < 3; i++ {
				s.Step(0.004)
			}
			v := s.FieldVariance(3)
			if c.Rank() == 0 {
				mu.Lock()
				results[p] = v
				mu.Unlock()
			}
		})
	}
	for _, p := range []int{2, 4} {
		if math.Abs(results[p]-results[1]) > 1e-12*results[1] {
			t.Errorf("P=%d variance %.15g differs from P=1 %.15g", p, results[p], results[1])
		}
	}
}

func TestScalarBlobDeterministic(t *testing.T) {
	mpi.Run(1, func(c *mpi.Comm) {
		s := New(c, 8, WithNu(0.01), WithScalars(2))
		defer s.Close()
		s.SetFieldBlob(3, 2, 0.5, 99)
		s.SetFieldBlob(4, 2, 0.5, 99)
		a, b := s.Field(3), s.Field(4)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("non-deterministic IC at %d", i)
			}
		}
	})
}

// TestScalarTimeOrder is what the coupled stepper used to forbid:
// scalars advance under either scheme, at the scheme's order. Three
// runs to the same time at dt, dt/2, dt/4 give the observed order
// log₂(|v(dt)−v(dt/2)| / |v(dt/2)−v(dt/4)|) of the scalar variance.
func TestScalarTimeOrder(t *testing.T) {
	const tEnd = 0.8
	variance := func(sch Scheme, steps int) float64 {
		var v float64
		mpi.Run(2, func(c *mpi.Comm) {
			s := New(c, 16, WithNu(0.05), WithScheme(sch), WithDealias(Dealias23),
				WithScalars(1, 0.7), WithScalarGradient(1))
			defer s.Close()
			s.SetRandomIsotropic(2.5, 0.5, 7)
			s.SetFieldBlob(3, 2.5, 0.5, 8)
			for i := 0; i < steps; i++ {
				s.Step(tEnd / float64(steps))
			}
			if fv := s.FieldVariance(3); c.Rank() == 0 {
				v = fv
			}
		})
		return v
	}
	for _, tc := range []struct {
		name  string
		sch   Scheme
		steps int
		min   float64
	}{{"rk2", RK2, 16, 1.8}, {"rk4", RK4, 4, 3.5}} {
		a, b, d := variance(tc.sch, tc.steps), variance(tc.sch, 2*tc.steps), variance(tc.sch, 4*tc.steps)
		order := math.Log2(math.Abs(a-b) / math.Abs(b-d))
		if math.IsNaN(order) || order < tc.min {
			t.Errorf("%s: observed order %.2f < %.1f (v=%.12g, %.12g, %.12g)", tc.name, order, tc.min, a, b, d)
		}
	}
}
