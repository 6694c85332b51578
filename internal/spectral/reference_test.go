package spectral

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/grid"
	"repro/internal/mpi"
)

// refStepper is the unfused stepper and right-hand side the solver ran
// before the stage sweeps were fused — the bodies below are that code
// verbatim, moved here as the oracle the fused arithmetic is compared
// against bit for bit. It advances s.state using s.nl — replaced by
// slab-layout buffers of its own, the layout the old right-hand sides
// had — and its own stage buffers, and evaluates the shipped systems'
// nonlinear terms through the old clear-then-accumulate kernels, the
// old per-mode dealias mask (built here from the solver's band) and the
// old every-mode phase shift.
type refStepper struct {
	s         *Solver
	difGroups []difGroup // ν ≠ 0 runs only, as the old constructor kept them
	mask      []bool     // dealias mask over the local slab (true = keep)
	save, acc [][]complex128
	rk1, rk2  [][]complex128
	rk3, rku  [][]complex128
	prod      []float64 // one product field at a time
}

func newRefStepper(s *Solver) *refStepper {
	r := &refStepper{s: s}
	bufs := func() [][]complex128 {
		f := make([][]complex128, s.nf)
		for c := range f {
			f[c] = make([]complex128, len(s.state[c]))
		}
		return f
	}
	r.save, r.acc = bufs(), bufs()
	r.prod = make([]float64, s.tr.PhysicalLen())
	r.rk1, r.rk2, r.rk3, r.rku = bufs(), bufs(), bufs(), bufs()
	s.nl = bufs()
	band := grid.NewBand(s.cfg.N, s.kmax)
	for iz := 0; iz < s.slab.MZ(); iz++ {
		for iy := 0; iy < s.cfg.N; iy++ {
			for ix := 0; ix < s.nxh; ix++ {
				r.mask = append(r.mask, band.Has(s.slab.ZLo()+iz) && band.Has(iy) && band.Has(ix))
			}
		}
	}
	for c := 0; c < s.nf; {
		nu := s.sys.Diffusivity(c)
		hi := c + 1
		for hi < s.nf && s.sys.Diffusivity(hi) == nu {
			hi++
		}
		if nu != 0 {
			r.difGroups = append(r.difGroups, difGroup{nu: nu, lo: c, hi: hi})
		}
		c = hi
	}
	return r
}

// step is the old stepInner.
func (r *refStepper) step(dt float64) {
	s := r.s
	s.atSite = 0
	if s.cfg.Dealias == Dealias23Shift {
		s.shift = stepShift(s.step, s.cfg.N)
	}
	switch s.cfg.Scheme {
	case RK2:
		r.stepRK2(dt)
	case RK4:
		r.stepRK4(dt)
	}
	s.sys.PostStep(s, dt)
	s.step++
	s.time += dt
}

// nonlinear is the shipped systems' Nonlinear over the old kernels.
func (r *refStepper) nonlinear(state, rhs [][]complex128) {
	s := r.s
	if ps, ok := s.sys.(*patternSystem); ok {
		ps.Nonlinear(s, state, rhs)
		return
	}
	r.velocityProducts(state, rhs)
	y, _ := s.sys.(*RotatingScalarNS)
	if y != nil && y.omega != 0 {
		r.addCoriolis(state, rhs, y.omega)
	}
	r.projectAndDealias(rhs)
	if y != nil {
		for i := range y.scalars {
			r.scalarAdvection(y, state, rhs, 3+i)
		}
	}
}

func (r *refStepper) stepRK2(dt float64) {
	s := r.s
	r.nonlinear(s.state, s.nl)
	s.atCorrect()
	for c := 0; c < s.nf; c++ {
		copy(r.save[c], s.state[c])
	}
	r.applyIF(r.save, dt) // save = E·uⁿ
	for c := 0; c < s.nf; c++ {
		u, nl := s.state[c], s.nl[c]
		for i := range u {
			u[i] += complex(dt, 0) * nl[i]
		}
	}
	r.applyIF(s.state, dt) // state = E·(uⁿ + dt·N(uⁿ)) = u*
	r.applyIF(s.nl, dt)    // nl = E·N(uⁿ)
	// Second stage: evaluate N at u*.
	for c := 0; c < s.nf; c++ {
		r.acc[c], s.nl[c] = s.nl[c], r.acc[c] // keep E·N(uⁿ) in acc
	}
	r.nonlinear(s.state, s.nl)
	half := complex(dt/2, 0)
	for c := 0; c < s.nf; c++ {
		u, sv, ac, nl := s.state[c], r.save[c], r.acc[c], s.nl[c]
		for i := range u {
			u[i] = sv[i] + half*(ac[i]+nl[i])
		}
	}
}

func (r *refStepper) stepRK4(dt float64) {
	s := r.s
	h := dt
	refCopyFields(r.save, s.state) // uⁿ
	// Stage 1: k1 = N(uⁿ).
	r.nonlinear(s.state, s.nl)
	s.atCorrect()
	refCopyFields(r.rk1, s.nl)
	refCopyFields(r.rku, r.save)
	refAddScaled(r.rku, r.rk1, h/2)
	r.applyIF(r.rku, h/2)
	// Stage 2: k2 = N(E½·(uⁿ + h/2·k1)).
	r.nonlinear(r.rku, s.nl)
	refCopyFields(r.rk2, s.nl)
	refCopyFields(r.rku, r.save)
	r.applyIF(r.rku, h/2)
	refAddScaled(r.rku, r.rk2, h/2)
	// Stage 3: k3 = N(E½·uⁿ + h/2·k2).
	r.nonlinear(r.rku, s.nl)
	refCopyFields(r.rk3, s.nl) // k3, folded to E½·k3 below
	refCopyFields(r.rku, r.save)
	r.applyIF(r.rku, h)
	r.applyIF(r.rk3, h/2) // E½·k3
	refAddScaled(r.rku, r.rk3, h)
	// Stage 4: k4 = N(E·uⁿ + h·E½·k3).
	r.nonlinear(r.rku, s.nl)
	// Assemble: uⁿ⁺¹ = E·uⁿ + h/6·(E·k1 + 2E½·k2 + 2E½·k3 + k4).
	r.applyIF(r.save, h) // E·uⁿ
	r.applyIF(r.rk1, h)  // E·k1
	r.applyIF(r.rk2, h/2)
	sixth := complex(h/6, 0)
	for c := 0; c < s.nf; c++ {
		u, sv, k1, k2, k3, k4 := s.state[c], r.save[c], r.rk1[c], r.rk2[c], r.rk3[c], s.nl[c]
		for i := range u {
			u[i] = sv[i] + sixth*(k1[i]+2*k2[i]+2*k3[i]+k4[i])
		}
	}
}

func zero(v []complex128) {
	for i := range v {
		v[i] = 0
	}
}

func refCopyFields(dst, src [][]complex128) {
	for c := range dst {
		copy(dst[c], src[c])
	}
}

func refAddScaled(dst, src [][]complex128, a float64) {
	ca := complex(a, 0)
	for c := range dst {
		d, s := dst[c], src[c]
		for i := range d {
			d[i] += ca * s[i]
		}
	}
}

func (r *refStepper) applyIF(f [][]complex128, dt float64) {
	s := r.s
	if dt == 0 || len(r.difGroups) == 0 {
		return
	}
	n, mz, nxh := s.cfg.N, s.slab.MZ(), s.nxh
	for _, g := range r.difGroups {
		nu := g.nu
		idx := 0
		for iz := 0; iz < mz; iz++ {
			kz2 := s.kzs[iz] * s.kzs[iz]
			for iy := 0; iy < n; iy++ {
				ky2 := s.kys[iy] * s.kys[iy]
				for ix := 0; ix < nxh; ix++ {
					k2 := s.kxs[ix]*s.kxs[ix] + ky2 + kz2
					e := complex(math.Exp(-nu*k2*dt), 0)
					for c := g.lo; c < g.hi; c++ {
						f[c][idx] *= e
					}
					idx++
				}
			}
		}
	}
}

func (r *refStepper) velocityProducts(state, rhs [][]complex128) {
	s := r.s
	shift := s.cfg.Dealias == Dealias23Shift

	// To physical space, one component at a time.
	for c := 0; c < 3; c++ {
		copy(s.work, state[c])
		if shift {
			r.applyShift(s.work, +1)
		}
		s.tr.FourierToPhysical(s.physU[c], s.work)
	}

	for c := 0; c < 3; c++ {
		zero(rhs[c])
	}

	// Products back to Fourier space, accumulating the divergence.
	for _, pair := range prodPairs {
		i, j := pair[0], pair[1]
		ui, uj := s.physU[i], s.physU[j]
		for m := range r.prod {
			r.prod[m] = ui[m] * uj[m]
		}
		s.tr.PhysicalToFourier(s.work, r.prod)
		if shift {
			r.applyShift(s.work, -1)
		}
		r.accumulateDivergence(rhs, i, j)
	}
}

func (r *refStepper) applyShift(f []complex128, sign float64) {
	s := r.s
	n, mz, nxh := s.cfg.N, s.slab.MZ(), s.nxh
	dx, dy, dz := s.shift[0], s.shift[1], s.shift[2]
	idx := 0
	for iz := 0; iz < mz; iz++ {
		pz := s.kzs[iz] * dz
		for iy := 0; iy < n; iy++ {
			py := s.kys[iy] * dy
			for ix := 0; ix < nxh; ix++ {
				ph := sign * (s.kxs[ix]*dx + py + pz)
				f[idx] *= cmplx.Exp(complex(0, ph))
				idx++
			}
		}
	}
}

func (r *refStepper) accumulateDivergence(rhs [][]complex128, i, j int) {
	s := r.s
	n, mz, nxh := s.cfg.N, s.slab.MZ(), s.nxh
	idx := 0
	for iz := 0; iz < mz; iz++ {
		kz := s.kzs[iz]
		for iy := 0; iy < n; iy++ {
			ky := s.kys[iy]
			for ix := 0; ix < nxh; ix++ {
				kvec := [3]float64{s.kxs[ix], ky, kz}
				v := s.work[idx]
				// −i·k·v = complex(k·imag, −k·real).
				rhs[i][idx] += complex(kvec[j]*imag(v), -kvec[j]*real(v))
				if i != j {
					rhs[j][idx] += complex(kvec[i]*imag(v), -kvec[i]*real(v))
				}
				idx++
			}
		}
	}
}

func (r *refStepper) addCoriolis(state, rhs [][]complex128, omega float64) {
	two := complex(2*omega, 0)
	ux, uy := state[0], state[1]
	rx, ry := rhs[0], rhs[1]
	for i := range rx {
		rx[i] += two * uy[i]
		ry[i] -= two * ux[i]
	}
}

func (r *refStepper) projectAndDealias(rhs [][]complex128) {
	s := r.s
	n, mz, nxh := s.cfg.N, s.slab.MZ(), s.nxh
	r0, r1, r2 := rhs[0], rhs[1], rhs[2]
	idx := 0
	for iz := 0; iz < mz; iz++ {
		kz := s.kzs[iz]
		for iy := 0; iy < n; iy++ {
			ky := s.kys[iy]
			for ix := 0; ix < nxh; ix++ {
				kx := s.kxs[ix]
				k2 := kx*kx + ky*ky + kz*kz
				if k2 == 0 || !r.mask[idx] {
					r0[idx] = 0
					r1[idx] = 0
					r2[idx] = 0
					idx++
					continue
				}
				dot := (complex(kx, 0)*r0[idx] +
					complex(ky, 0)*r1[idx] +
					complex(kz, 0)*r2[idx]) / complex(k2, 0)
				r0[idx] -= complex(kx, 0) * dot
				r1[idx] -= complex(ky, 0) * dot
				r2[idx] -= complex(kz, 0) * dot
				idx++
			}
		}
	}
}

func (r *refStepper) scalarAdvection(y *RotatingScalarNS, state, rhs [][]complex128, c int) {
	s := r.s
	shift := s.cfg.Dealias == Dealias23Shift
	copy(s.work, state[c])
	if shift {
		r.applyShift(s.work, +1)
	}
	s.tr.FourierToPhysical(y.physTh, s.work)

	zero(rhs[c])
	for comp := 0; comp < 3; comp++ {
		u := s.physU[comp]
		for m := range r.prod {
			r.prod[m] = u[m] * y.physTh[m]
		}
		s.tr.PhysicalToFourier(s.work, r.prod)
		if shift {
			r.applyShift(s.work, -1)
		}
		r.accumulateGradientFlux(rhs[c], comp)
	}

	// Mean-gradient production −G·û_y and dealiasing.
	g := y.scalars[c-3].meanGrad
	gc := complex(g, 0)
	rc, uy := rhs[c], state[1]
	for i := range rc {
		if !r.mask[i] {
			rc[i] = 0
			continue
		}
		if g != 0 {
			rc[i] -= gc * uy[i]
		}
	}
}

func (r *refStepper) accumulateGradientFlux(dst []complex128, comp int) {
	s := r.s
	n, mz, nxh := s.cfg.N, s.slab.MZ(), s.nxh
	idx := 0
	for iz := 0; iz < mz; iz++ {
		kz := s.kzs[iz]
		for iy := 0; iy < n; iy++ {
			ky := s.kys[iy]
			for ix := 0; ix < nxh; ix++ {
				k := [3]float64{s.kxs[ix], ky, kz}[comp]
				v := s.work[idx]
				// −i·k·v = complex(k·imag, −k·real).
				dst[idx] += complex(k*imag(v), -k*real(v))
				idx++
			}
		}
	}
}

// patternSystem is a four-field system with no physics: its right-hand
// side is a hashed draw from a few signed zeros and small numbers,
// different at every call, and its fields diffuse at ν, ν, 0 and ν/2. It feeds the
// stage sweeps the operands real right-hand sides almost never hold —
// −0 against −0 — in diffusive and inviscid groups side by side.
type patternSystem struct {
	nu    float64
	calls int
}

var patternVals = [...]float64{math.Copysign(0, -1), math.Copysign(0, -1), 0, 1.25, -0.75}

func (y *patternSystem) Name() string  { return "pattern" }
func (y *patternSystem) Fields() int   { return 4 }
func (y *patternSystem) Setup(*Solver) {}
func (y *patternSystem) Diffusivity(c int) float64 {
	return [...]float64{y.nu, y.nu, 0, y.nu / 2}[c]
}
func (y *patternSystem) Nonlinear(s *Solver, state, rhs [][]complex128) {
	y.calls++
	for c := range rhs {
		for i := range rhs[c] {
			h := splitmix(uint64(i)<<20 | uint64(c)<<16 | uint64(y.calls))
			rhs[c][i] = complex(patternVals[h%5], patternVals[(h>>8)%5])
		}
	}
}
func (y *patternSystem) PostStep(*Solver, float64)        {}
func (y *patternSystem) Diagnostics(*Solver) []Diagnostic { return nil }

// refSystems are the equation sets the bitwise comparison covers: the
// three shipped ones — rotating-scalar with two scalars (Sc 1 and 0.7,
// a mean gradient on the first only, so both tails of scalarAdvection
// run) — a scalar of infinite Schmidt number, whose κ = 0 field takes
// the multiply-free sweep beside diffusive ones, and patternSystem.
// opts builds fresh options per solver (a System serves one Solver).
var refSystems = []struct {
	name string
	opts func(nu float64) []Option
}{
	{"ns", func(float64) []Option { return nil }},
	{"forced-ns", func(float64) []Option { return []Option{WithForcing(2, 0.05), WithForcingNoise(0.5, 3)} }},
	{"rotating-scalar", func(float64) []Option {
		return []Option{WithRotation(2.0), WithScalars(1, 1.0), WithScalarGradient(1.0), WithScalars(1, 0.7)}
	}},
	{"mixed-kappa", func(float64) []Option {
		return []Option{WithScalars(2, math.Inf(1), 0.7), WithScalarGradient(0.5)}
	}},
	{"pattern", func(nu float64) []Option { return []Option{WithSystemInstance(&patternSystem{nu: nu})} }},
}

// TestFusedStepMatchesReferenceBitwise steps two solvers from the same
// initial condition — one through Step, one through the unfused
// reference — with dt changing every step, and requires the right-hand
// side evaluated before each step and every field after it to agree in
// every bit, signs of zero included. The negated Taylor–Green start
// holds most modes at −0, the one value a dropped `0 +` or a stray
// multiply by complex(1, 0) changes the sign of.
func TestFusedStepMatchesReferenceBitwise(t *testing.T) {
	dts := []float64{4e-3, 2.5e-3, 3.1e-3}
	for _, sys := range refSystems {
		for _, sch := range []Scheme{RK2, RK4} {
			for _, da := range []Dealias{DealiasNone, Dealias23, Dealias23Shift} {
				if sys.name == "pattern" && da != DealiasNone {
					continue // no transforms, no mask: dealiasing changes nothing
				}
				for _, nu := range []float64{0, 0.01} {
					for _, p := range []int{1, 2, 4} {
						for _, ic := range []string{"random", "neg-taylor-green"} {
							name := fmt.Sprintf("%s/scheme%d/dealias%d/nu%g/p%d/%s", sys.name, sch, da, nu, p, ic)
							opts := func() []Option {
								return append([]Option{WithNu(nu), WithScheme(sch), WithDealias(da)}, sys.opts(nu)...)
							}
							mpi.Run(p, func(c *mpi.Comm) {
								fused, plain := New(c, 16, opts()...), New(c, 16, opts()...)
								defer fused.Close()
								defer plain.Close()
								for _, s := range []*Solver{fused, plain} {
									for f := 3; f < s.Fields(); f++ {
										s.SetFieldBlob(f, 2.5, 0.5, int64(40+f))
									}
									if ic == "random" {
										s.SetRandomIsotropic(2.5, 0.3, 17)
										continue
									}
									s.SetTaylorGreen()
									for _, u := range s.state {
										for i := range u {
											u[i] = -u[i]
										}
									}
								}
								ref := newRefStepper(plain)
								for step, dt := range dts {
									fused.sys.Nonlinear(fused, fused.state, fused.nl)
									ref.nonlinear(plain.state, plain.nl)
									if !sameBits(t, name, c.Rank(), step, "rhs", slabLayout(fused, fused.nl), plain.nl) {
										return
									}
									fused.Step(dt)
									ref.step(dt)
									if !sameBits(t, name, c.Rank(), step, "field", fused.state, plain.state) {
										return
									}
								}
							})
						}
					}
				}
			}
		}
	}
}

// slabLayout expands band fields into the slab layout, +0 outside the
// band.
func slabLayout(s *Solver, band [][]complex128) [][]complex128 {
	out := make([][]complex128, len(band))
	for c, f := range band {
		out[c] = make([]complex128, len(s.state[c]))
		for _, r := range s.rows {
			copy(out[c][r.off:r.off+s.kb], f[r.boff:r.boff+s.kb])
		}
	}
	return out
}

// sameBits reports (and flags) the first mode at which two field sets
// differ in any bit.
func sameBits(t *testing.T, name string, rank, step int, what string, got, want [][]complex128) bool {
	for f := range want {
		for i, w := range want[f] {
			g := got[f][i]
			if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
				math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
				t.Errorf("%s: rank %d step %d %s %d mode %d: fused %v, reference %v", name, rank, step, what, f, i, g, w)
				return false
			}
		}
	}
	return true
}

// TestIFTableMatchesExp checks the tabulated integrating factor against
// the per-mode expression it replaced, bit for bit, over every local
// mode: the gathered plane entry for (ix, iy, iz) must be
// exp(−ν·(kx²+ky²+kz²)·dt) as the old applyIF formed it.
func TestIFTableMatchesExp(t *testing.T) {
	for _, n := range []int{8, 48, 64} {
		for _, nu := range []float64{0.01, 0.37} {
			mpi.Run(2, func(c *mpi.Comm) {
				s := New(c, n, WithNu(nu), WithScheme(RK4))
				defer s.Close()
				g := &s.difGroups[0]
				for slot, dt := range []float64{1e-3, 2.5e-2, 0.7} {
					slot %= 2
					for iz := 0; iz < s.slab.MZ(); iz++ {
						e := s.ifGather(g, slot, dt, iz)
						kz2 := s.kzs[iz] * s.kzs[iz]
						for iy := 0; iy < n; iy++ {
							ky2 := s.kys[iy] * s.kys[iy]
							for ix := 0; ix < s.nxh; ix++ {
								k2 := s.kxs[ix]*s.kxs[ix] + ky2 + kz2
								want := math.Exp(-nu * k2 * dt)
								if got := e[iy*s.nxh+ix]; math.Float64bits(got) != math.Float64bits(want) {
									t.Fatalf("n=%d nu=%g dt=%g mode (%d,%d,%d): table %v, exp %v", n, nu, dt, ix, iy, iz, got, want)
								}
							}
						}
					}
				}
			})
		}
	}
}

// ifFillCounter counts the exponentials spent on integrating-factor
// tables from outside the stepper: ifGather's refill loop is the step
// path's only math.Exp and runs exactly when a slot's recorded dt
// changes, so each observed change is len(table) calls.
type ifFillCounter struct {
	dts  [][2]float64
	exps int
}

func (f *ifFillCounter) observe(s *Solver) int {
	if f.dts == nil {
		f.dts = make([][2]float64, len(s.difGroups))
	}
	for gi := range s.difGroups {
		g := &s.difGroups[gi]
		for slot, dt := range g.tabDt {
			if dt != f.dts[gi][slot] {
				f.dts[gi][slot] = dt
				f.exps += len(g.tab[slot])
			}
		}
	}
	return f.exps
}

// TestIFTableExpCalls counts the exponentials a run spends on the
// integrating factor: one table fill of 3(N/2)²+1 entries per
// (ν-group, dt) change and none at a fixed dt, where the unfused
// stepper evaluated one per mode per applyIF call — 3 × 67 584 per rank
// per RK2 step at N = 64, P = 2 (3 × 135 168 over the two ranks).
func TestIFTableExpCalls(t *testing.T) {
	if testing.Short() {
		t.Skip("N=64 steps in -short mode")
	}
	const n, tab = 64, 3*32*32 + 1
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, n, WithNu(0.01), WithDealias(Dealias23))
		defer s.Close()
		s.SetRandomIsotropic(3, 0.5, 1)
		perSweep := s.slab.MZ() * n * s.nxh
		if perSweep != 67584 {
			t.Errorf("modes per rank = %d, want 67584", perSweep)
		}
		var fills ifFillCounter
		want := []int{tab, tab, tab, 2 * tab, 2 * tab}
		for i, dt := range []float64{1e-3, 1e-3, 1e-3, 2e-3, 2e-3} {
			s.Step(dt)
			if got := fills.observe(s); got != want[i] {
				t.Errorf("rank %d: %d math.Exp calls after step %d, want %d", c.Rank(), got, i, want[i])
			}
		}
	})
}

// TestIFTableRefillZeroAllocs: changing dt refills the tables in place.
func TestIFTableRefillZeroAllocs(t *testing.T) {
	for _, sch := range []Scheme{RK2, RK4} {
		mpi.Run(1, func(c *mpi.Comm) {
			s := New(c, 16, WithNu(0.01), WithScheme(sch), WithDealias(Dealias23), WithScalars(1, 0.7))
			defer s.Close()
			s.SetTaylorGreen()
			s.SetFieldBlob(3, 2.5, 0.5, 43)
			dt := 1e-3
			for i := 0; i < 3; i++ {
				s.Step(dt)
			}
			var fills ifFillCounter
			before := fills.observe(s)
			if avg := testing.AllocsPerRun(10, func() { dt *= 1.01; s.Step(dt) }); avg != 0 {
				t.Errorf("scheme %d: a dt change allocates %.1f per step", sch, avg)
			}
			if fills.observe(s) == before {
				t.Errorf("scheme %d: tables were not refilled on a dt change", sch)
			}
		})
	}
}
