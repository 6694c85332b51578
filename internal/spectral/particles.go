package spectral

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/mpi"
)

// Lagrangian particle tracking: the PSDNS codes of the paper's group
// follow O(10⁷) fluid particles through the Eulerian field to gather
// Lagrangian statistics (dispersion, time correlations). Particles are
// advected with the local fluid velocity, dx/dt = u(x(t), t),
// interpolated from the grid and stepped with the same RK2 scheme as
// the field.
//
// Every rank holds a copy of the full particle set (the "replicated
// cloud" strategy, appropriate for particle counts ≪ grid points);
// velocities are evaluated from each rank's slab and summed, so the
// interpolation is exact without particle migration logic.

// Particles is a set of fluid tracers attached to a solver.
type Particles struct {
	// X holds positions in [0, 2π)³, layout [n][3].
	X [][3]float64
	// V holds the last interpolated velocities (diagnostic).
	V [][3]float64

	x0 [][3]float64 // initial positions, for dispersion statistics
	k1 [][3]float64 // RK2 stage scratch
	xs [][3]float64
}

// NewParticles places n particles uniformly at random (deterministic
// in seed, identical on all ranks).
func (s *Solver) NewParticles(n int, seed int64) *Particles {
	if n < 1 {
		panic(fmt.Sprintf("spectral: invalid particle count %d", n))
	}
	rng := rand.New(rand.NewSource(seed))
	p := &Particles{
		X:  make([][3]float64, n),
		V:  make([][3]float64, n),
		x0: make([][3]float64, n),
		k1: make([][3]float64, n),
		xs: make([][3]float64, n),
	}
	for i := range p.X {
		for d := 0; d < 3; d++ {
			p.X[i][d] = 2 * math.Pi * rng.Float64()
		}
		p.x0[i] = p.X[i]
	}
	return p
}

// interpVelocities evaluates u at every particle position by trilinear
// interpolation from the current physical-space velocity (which must
// already be in s.physU), summing partial contributions across ranks:
// each rank contributes the terms whose y-nodes it owns (collective).
func (s *Solver) interpVelocities(p *Particles, out [][3]float64) {
	n := s.cfg.N
	h := 2 * math.Pi / float64(n)
	my, yLo := s.slab.MY(), s.slab.YLo()
	flat := make([]float64, 3*len(p.X))
	for i, x := range p.X {
		// Cell indices and weights per direction.
		var i0, i1 [3]int
		var w0, w1 [3]float64
		for d := 0; d < 3; d++ {
			q := x[d] / h
			base := math.Floor(q)
			f := q - base
			i0[d] = ((int(base) % n) + n) % n
			i1[d] = (i0[d] + 1) % n
			w0[d] = 1 - f
			w1[d] = f
		}
		// Sum over the 8 corners, but only y-nodes owned locally.
		for _, yc := range []struct {
			gy int
			wy float64
		}{{i0[1], w0[1]}, {i1[1], w1[1]}} {
			if yc.gy < yLo || yc.gy >= yLo+my {
				continue
			}
			ly := yc.gy - yLo
			for _, zc := range []struct {
				gz int
				wz float64
			}{{i0[2], w0[2]}, {i1[2], w1[2]}} {
				for _, xc := range []struct {
					gx int
					wx float64
				}{{i0[0], w0[0]}, {i1[0], w1[0]}} {
					w := yc.wy * zc.wz * xc.wx
					idx := (ly*n+zc.gz)*n + xc.gx
					for c := 0; c < 3; c++ {
						flat[3*i+c] += w * s.physU[c][idx]
					}
				}
			}
		}
	}
	mpi.AllreduceSum(s.comm, flat)
	for i := range out {
		out[i] = [3]float64{flat[3*i], flat[3*i+1], flat[3*i+2]}
	}
}

// syncPhysical brings the current velocity field to physical space.
func (s *Solver) syncPhysical() {
	for c := 0; c < 3; c++ {
		copy(s.work, s.Uh[c])
		s.tr.FourierToPhysical(s.physU[c], s.work)
	}
}

// StepParticles advances the particle set by dt with Heun's RK2 using
// the *current* (frozen) velocity field — call it once per solver
// step, before or after Step, as production codes do (the field is
// piecewise-frozen over a particle substep; the O(dt²) error matches
// the field scheme). Collective.
func (s *Solver) StepParticles(p *Particles, dt float64) {
	s.syncPhysical()
	s.interpVelocities(p, p.k1)
	twoPi := 2 * math.Pi
	for i := range p.X {
		for d := 0; d < 3; d++ {
			p.xs[i][d] = math.Mod(p.X[i][d]+dt*p.k1[i][d]+twoPi, twoPi)
		}
	}
	// Second stage at the predicted position (same frozen field).
	save := p.X
	p.X = p.xs
	s.interpVelocities(p, p.V)
	p.X = save
	for i := range p.X {
		for d := 0; d < 3; d++ {
			p.X[i][d] = math.Mod(p.X[i][d]+dt/2*(p.k1[i][d]+p.V[i][d])+twoPi, twoPi)
		}
	}
}

// Dispersion returns the mean-square displacement ⟨|x−x₀|²⟩ with
// minimum-image periodic differences (local computation; identical on
// all ranks since the cloud is replicated).
func (p *Particles) Dispersion() float64 {
	var acc float64
	for i := range p.X {
		for d := 0; d < 3; d++ {
			diff := periodicDelta(p.X[i][d] - p.x0[i][d])
			acc += diff * diff
		}
	}
	return acc / float64(len(p.X))
}

// periodicDelta maps a displacement into (−π, π].
func periodicDelta(d float64) float64 {
	twoPi := 2 * math.Pi
	d = math.Mod(d, twoPi)
	if d > math.Pi {
		d -= twoPi
	}
	if d <= -math.Pi {
		d += twoPi
	}
	return d
}
