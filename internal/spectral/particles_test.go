package spectral

import (
	"math"
	"testing"

	"repro/internal/mpi"
)

// setUniformFlow gives the solver a constant velocity field (the k=0
// mode only), the one flow where particle advection is exact.
func setUniformFlow(s *Solver, u, v, w float64) {
	for c := 0; c < 3; c++ {
		clear(s.Uh[c])
	}
	if s.slab.ZOwner(0) == s.slab.Rank {
		n3 := float64(s.cfg.N)
		n3 = n3 * n3 * n3
		s.Uh[0][0] = complex(u*n3, 0)
		s.Uh[1][0] = complex(v*n3, 0)
		s.Uh[2][0] = complex(w*n3, 0)
	}
}

func TestParticlesUniformAdvectionExact(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 8, WithNu(0))
		defer s.Close()
		setUniformFlow(s, 0.3, -0.2, 0.1)
		p := s.NewParticles(10, 5)
		x0 := append([][3]float64(nil), p.X...)
		dt := 0.05
		steps := 12
		for i := 0; i < steps; i++ {
			s.StepParticles(p, dt)
		}
		tEnd := dt * float64(steps)
		for i := range p.X {
			want := [3]float64{
				math.Mod(x0[i][0]+0.3*tEnd+4*math.Pi, 2*math.Pi),
				math.Mod(x0[i][1]-0.2*tEnd+4*math.Pi, 2*math.Pi),
				math.Mod(x0[i][2]+0.1*tEnd+4*math.Pi, 2*math.Pi),
			}
			for d := 0; d < 3; d++ {
				if math.Abs(periodicDelta(p.X[i][d]-want[d])) > 1e-12 {
					t.Fatalf("particle %d dim %d: %g want %g", i, d, p.X[i][d], want[d])
				}
			}
		}
		// Dispersion of uniform translation: |u|²·t².
		speed2 := 0.3*0.3 + 0.2*0.2 + 0.1*0.1
		want := speed2 * tEnd * tEnd
		if math.Abs(p.Dispersion()-want) > 1e-10 {
			t.Errorf("dispersion %g want %g", p.Dispersion(), want)
		}
	})
}

func TestParticleVelocityInterpolationAtNodes(t *testing.T) {
	// A particle exactly on a grid node must get the nodal velocity.
	mpi.Run(2, func(c *mpi.Comm) {
		n := 8
		s := New(c, n, WithNu(0))
		defer s.Close()
		s.SetTaylorGreen()
		s.syncPhysical()
		p := s.NewParticles(4, 1)
		h := 2 * math.Pi / float64(n)
		nodes := [][3]int{{1, 2, 3}, {0, 0, 0}, {7, 5, 2}, {4, 4, 4}}
		for i, nd := range nodes {
			p.X[i] = [3]float64{float64(nd[0]) * h, float64(nd[1]) * h, float64(nd[2]) * h}
		}
		v := make([][3]float64, len(p.X))
		s.interpVelocities(p, v)
		for i, nd := range nodes {
			x, y, z := float64(nd[0])*h, float64(nd[1])*h, float64(nd[2])*h
			wantU := math.Sin(x) * math.Cos(y) * math.Cos(z)
			wantV := -math.Cos(x) * math.Sin(y) * math.Cos(z)
			if math.Abs(v[i][0]-wantU) > 1e-12 || math.Abs(v[i][1]-wantV) > 1e-12 || math.Abs(v[i][2]) > 1e-12 {
				t.Fatalf("node %v: v=%v want (%g,%g,0)", nd, v[i], wantU, wantV)
			}
		}
	})
}

func TestParticlesAtTGStagnationPointStay(t *testing.T) {
	// (0,0,0) is a stagnation point of the Taylor–Green field: u=v=w=0
	// (sin(0)=0 for u; sin(0)=0 for v's y factor; w≡0).
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0))
		defer s.Close()
		s.SetTaylorGreen()
		p := s.NewParticles(1, 1)
		p.X[0] = [3]float64{0, 0, 0}
		p.x0[0] = p.X[0]
		for i := 0; i < 10; i++ {
			s.StepParticles(p, 0.02)
		}
		if d := p.Dispersion(); d > 1e-20 {
			t.Errorf("stagnation particle moved: dispersion %g", d)
		}
	})
}

func TestParticlesRankCountIndependent(t *testing.T) {
	positions := map[int][3]float64{}
	for _, ranks := range []int{1, 2, 4} {
		ranks := ranks
		mpi.Run(ranks, func(c *mpi.Comm) {
			s := New(c, 16, WithNu(0.02), WithScheme(RK2), WithDealias(Dealias23))
			defer s.Close()
			s.SetRandomIsotropic(3, 0.5, 83)
			p := s.NewParticles(5, 7)
			for i := 0; i < 3; i++ {
				s.StepParticles(p, 0.01)
				s.Step(0.01)
			}
			if c.Rank() == 0 {
				positions[ranks] = p.X[2]
			}
		})
	}
	for _, ranks := range []int{2, 4} {
		for d := 0; d < 3; d++ {
			if math.Abs(positions[ranks][d]-positions[1][d]) > 1e-12 {
				t.Errorf("ranks=%d: particle position differs: %v vs %v",
					ranks, positions[ranks], positions[1])
			}
		}
	}
}

func TestParticleDispersionGrowsInTurbulence(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0.02), WithScheme(RK2), WithDealias(Dealias23),
			WithForcing(2, DefaultForcingEps))
		defer s.Close()
		s.SetRandomIsotropic(2.5, 0.5, 89)
		p := s.NewParticles(32, 11)
		var prev float64
		for i := 0; i < 12; i++ {
			s.StepParticles(p, 0.01)
			s.Step(0.01)
			d := p.Dispersion()
			if d < prev {
				// Ballistic regime: dispersion must grow monotonically.
				t.Fatalf("dispersion shrank at step %d: %g < %g", i, d, prev)
			}
			prev = d
		}
		if prev == 0 {
			t.Error("particles did not move")
		}
	})
}

func TestPeriodicDelta(t *testing.T) {
	cases := map[float64]float64{
		0.1:             0.1,
		-0.1:            -0.1,
		2*math.Pi - 0.1: -0.1,
		math.Pi + 0.2:   -math.Pi + 0.2,
	}
	for in, want := range cases {
		if got := periodicDelta(in); math.Abs(got-want) > 1e-12 {
			t.Errorf("periodicDelta(%g)=%g want %g", in, got, want)
		}
	}
}
