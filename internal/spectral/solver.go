package spectral

import (
	"fmt"
	"math"
	"time"

	"repro/internal/grid"
	"repro/internal/mpi"
)

// Scheme selects the explicit time integrator for the nonlinear term.
type Scheme int

const (
	// RK2 is the second-order Runge–Kutta (Heun) scheme the paper
	// reports timings for.
	RK2 Scheme = iota
	// RK4 is the classical fourth-order scheme; roughly twice the cost
	// per step with a small amount of extra storage (§2 of the paper).
	RK4
)

// ParseScheme maps a flag value ("rk2" or "rk4") to a Scheme.
func ParseScheme(s string) (Scheme, error) {
	switch s {
	case "rk2":
		return RK2, nil
	case "rk4":
		return RK4, nil
	}
	return RK2, fmt.Errorf("spectral: unknown scheme %q (want rk2 or rk4)", s)
}

// Dealias selects the aliasing control applied to nonlinear products.
type Dealias int

const (
	// DealiasNone applies no truncation (only for analytic tests whose
	// spectra vanish well below the grid cutoff).
	DealiasNone Dealias = iota
	// Dealias23 zeroes every mode with |k_i| > N/3 (2/3-rule).
	Dealias23
	// Dealias23Shift combines 2/3 truncation with grid phase shifting,
	// the Rogallo treatment referenced in §2.
	Dealias23Shift
)

// config is the numerics of one simulation, filled in by New's
// options.
type config struct {
	N       int     // grid points per direction (even)
	Nu      float64 // kinematic viscosity
	Scheme  Scheme
	Dealias Dealias
}

// Transform is the distributed 3D transform pair the solver advances
// fields through. pfft.SlabReal is the synchronous reference; the
// batched asynchronous GPU pipeline of internal/core implements the
// same contract, so the full DNS can run on either engine.
type Transform interface {
	// FourierToPhysical converts [mz][ny][nxh] complex (code units)
	// into [my][nz][nx] real, applying 1/N³; the input is scratch.
	FourierToPhysical(phys []float64, four []complex128)
	// PhysicalToFourier is the unnormalized adjoint direction.
	PhysicalToFourier(four []complex128, phys []float64)
	Slab() grid.Slab
	NXH() int
	FourierLen() int
	PhysicalLen() int
}

// difGroup is a run of consecutive fields sharing one diffusion
// coefficient, precomputed so the integrating factor evaluates one
// exponential per mode per distinct ν rather than per field.
type difGroup struct {
	nu     float64
	lo, hi int // fields [lo, hi)
}

// Solver advances one equation set (a System) on one MPI rank of a
// slab-decomposed domain. All ranks of the communicator must construct
// a Solver and call its collective methods (Step, Energy, …) in the
// same order.
//
// The Solver owns the numerics — field storage, RK stage buffers,
// wavenumber tables, the dealias mask, distributed transforms — and
// delegates the physics to its System. The default System is decaying
// incompressible Navier–Stokes.
type Solver struct {
	comm *mpi.Comm
	cfg  config
	slab grid.Slab
	tr   Transform
	nxh  int

	sys System
	nf  int // sys.Fields()

	// state holds all nf spectral fields, each [mz][ny][nxh] in code
	// units (N³·û). The first three entries are the solenoidal
	// velocity; Uh aliases them for the velocity-specific diagnostics
	// and initial conditions.
	state [][]complex128
	Uh    [3][]complex128

	// Scratch for the pseudo-spectral nonlinear term.
	physU [3][]float64   // velocity in physical space
	prod  []float64      // one product field at a time
	nl    [][]complex128 // per-field right-hand side
	work  []complex128
	save  [][]complex128 // RK substage storage
	acc   [][]complex128 // RK4 accumulator
	// RK4 stage storage, hoisted out of the step loop (allocated once
	// at construction when the scheme needs it, never per step):
	// rk1..rk3 hold k1, k2 and E½·k3; rku holds the stage state the
	// next nonlinear term is evaluated at.
	rk1 [][]complex128
	rk2 [][]complex128
	rk3 [][]complex128
	rku [][]complex128

	// difGroups are the distinct-diffusivity field runs the integrating
	// factor iterates over (empty for the inviscid case).
	difGroups []difGroup

	// Wavenumber tables for the local Fourier slab.
	kxs []float64 // length nxh
	kys []float64 // length n
	kzs []float64 // length mz (global z = zLo+iz)

	mask []bool // dealias mask over the local slab (true = keep)

	step  int
	time  float64
	shift [3]float64 // current phase shift (Dealias23Shift)

	met    *solverMetrics
	trSecs float64 // seconds inside transform calls this step

	// Asynchrony-tolerant stepping (WithAsyncTolerance): atSrc drains
	// the transform's staleness window once per step; prevNl holds the
	// previous step's first-stage nonlinear term for the first-order
	// staleness correction. atSteps counts the steps a nonzero
	// correction was applied to (rank-local, diagnostic).
	atCorr   bool
	atSrc    stalenessReporter
	atPrevNl [][]complex128
	atHave   bool
	atSteps  int
	// atSite is the within-step transform call counter the
	// timedTransform wrapper stamps onto every bounded exchange (see
	// atSiteLabeler); reset at each step's entry so call i of every
	// step labels the same physical quantity, making an accepted stale
	// slab's age a whole number of time steps.
	atSite uint32

	// ownTr records that the solver built its transform itself (New
	// without WithTransform) and therefore closes it; a
	// caller-supplied engine stays the caller's to close. closed makes
	// Close idempotent.
	ownTr  bool
	closed bool
}

// Close releases the solver's collectively-registered resources: the
// system's persistent plans (through an optional Close method, e.g.
// the forced systems' band-energy ReducePlan) and, when the solver
// constructed its own transform engine, that engine's exchange and
// all-to-all plans. Collective — every rank must call it — and
// idempotent. Solvers running on a caller-supplied transform leave
// the engine open for the caller to close.
func (s *Solver) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if c, ok := s.sys.(interface{ Close() }); ok {
		c.Close()
	}
	if s.ownTr {
		if c, ok := s.Transform().(interface{ Close() }); ok {
			c.Close()
		}
	}
}

// OwnTransform transfers ownership of a caller-supplied transform to
// the solver: Close will close the engine along with the system. For
// call sites that build a transform solely for one solver and never
// touch it again (a builder returning just the *Solver); a transform
// shared across solvers must stay caller-owned.
func (s *Solver) OwnTransform() { s.ownTr = true }

// stalenessReporter is the staleness-accounting contract an
// asynchrony-tolerant transform engine exposes (pfft.SlabReal and
// core.AsyncSlabReal both implement it): drain the window of bounded
// exchanges since the previous call, reporting the maximum per-slab
// age, the summed age, the count of stale slabs gathered and the
// count of bounded exchange calls. Ages are in same-site cycles —
// with the solver's per-step site labeling, whole time steps.
type stalenessReporter interface {
	TakeStaleness() (max int, sum, slabs, calls int64)
}

// newSolver is the construction path behind New. at arms the
// asynchrony-tolerant correction: the transform must then report
// staleness (see stalenessReporter) and the stepper gains the prevNl
// storage the first-order correction extrapolates from.
func newSolver(comm *mpi.Comm, cfg config, tr Transform, sys System, at bool) *Solver {
	if cfg.Nu < 0 {
		panic(fmt.Sprintf("spectral: negative viscosity %g", cfg.Nu))
	}
	nf := sys.Fields()
	if nf < 3 {
		panic(fmt.Sprintf("spectral: system %q declares %d fields; need ≥3 (velocity)", sys.Name(), nf))
	}
	s := &Solver{
		comm: comm,
		cfg:  cfg,
		slab: tr.Slab(),
		nxh:  tr.NXH(),
		sys:  sys,
		nf:   nf,
		met:  newSolverMetrics(comm),
	}
	// Wrap the engine so transform time is attributable; Transform()
	// hands back the unwrapped engine.
	s.tr = &timedTransform{inner: tr, secs: &s.trSecs}
	fl, pl := tr.FourierLen(), tr.PhysicalLen()
	s.state = make([][]complex128, nf)
	s.nl = make([][]complex128, nf)
	s.save = make([][]complex128, nf)
	s.acc = make([][]complex128, nf)
	for c := 0; c < nf; c++ {
		s.state[c] = make([]complex128, fl)
		s.nl[c] = make([]complex128, fl)
		s.save[c] = make([]complex128, fl)
		s.acc[c] = make([]complex128, fl)
	}
	for c := 0; c < 3; c++ {
		s.Uh[c] = s.state[c]
		s.physU[c] = make([]float64, pl)
	}
	s.prod = make([]float64, pl)
	s.work = make([]complex128, fl)
	if cfg.Scheme == RK4 {
		s.rk1 = make([][]complex128, nf)
		s.rk2 = make([][]complex128, nf)
		s.rk3 = make([][]complex128, nf)
		s.rku = make([][]complex128, nf)
		for c := 0; c < nf; c++ {
			s.rk1[c] = make([]complex128, fl)
			s.rk2[c] = make([]complex128, fl)
			s.rk3[c] = make([]complex128, fl)
			s.rku[c] = make([]complex128, fl)
		}
	}
	if at {
		src, ok := tr.(stalenessReporter)
		if !ok {
			panic(fmt.Sprintf("spectral: WithAsyncTolerance needs an asynchrony-tolerant transform (pfft.NewSlabRealAT or core.Options with exchange.AT); %T cannot report staleness", tr))
		}
		s.atCorr = true
		s.atSrc = src
		s.atPrevNl = make([][]complex128, nf)
		for c := 0; c < nf; c++ {
			s.atPrevNl[c] = make([]complex128, fl)
		}
		// Engines that accept quantity labels get every transform call
		// stamped with the within-step call index, so their bounded
		// exchanges only substitute stale slabs of the same quantity.
		if lab, ok := tr.(atSiteLabeler); ok {
			tt := s.tr.(*timedTransform)
			tt.lab, tt.site = lab, &s.atSite
		}
	}

	n, mz := cfg.N, s.slab.MZ()
	s.kxs = make([]float64, s.nxh)
	for i := range s.kxs {
		s.kxs[i] = float64(i)
	}
	s.kys = make([]float64, n)
	for i := range s.kys {
		s.kys[i] = float64(grid.Wavenumber(i, n))
	}
	s.kzs = make([]float64, mz)
	for i := range s.kzs {
		s.kzs[i] = float64(grid.Wavenumber(s.slab.ZLo()+i, n))
	}

	s.mask = make([]bool, fl)
	cut := grid.DealiasCutoff(n)
	idx := 0
	for iz := 0; iz < mz; iz++ {
		kz := math.Abs(s.kzs[iz])
		for iy := 0; iy < n; iy++ {
			ky := math.Abs(s.kys[iy])
			for ix := 0; ix < s.nxh; ix++ {
				keep := true
				if cfg.Dealias != DealiasNone {
					if s.kxs[ix] > cut || ky > cut || kz > cut {
						keep = false
					}
				}
				s.mask[idx] = keep
				idx++
			}
		}
	}

	// Fold per-field diffusivities into runs of equal ν so applyIF
	// computes one exponential per mode per run; ν=0 runs are dropped
	// (the integrating factor is the identity there).
	for c := 0; c < nf; {
		nu := sys.Diffusivity(c)
		if nu < 0 {
			panic(fmt.Sprintf("spectral: system %q: negative diffusivity %g for field %d", sys.Name(), nu, c))
		}
		hi := c + 1
		for hi < nf && sys.Diffusivity(hi) == nu {
			hi++
		}
		if nu != 0 {
			s.difGroups = append(s.difGroups, difGroup{nu: nu, lo: c, hi: hi})
		}
		c = hi
	}

	sys.Setup(s)
	comm.Metrics().GaugeRank("solver.system", comm.Rank()).Set(float64(SystemCode(sys.Name())))
	return s
}

// N reports the linear grid size.
func (s *Solver) N() int { return s.cfg.N }

// Slab reports the decomposition geometry of this rank.
func (s *Solver) Slab() grid.Slab { return s.slab }

// Time reports the current simulation time.
func (s *Solver) Time() float64 { return s.time }

// StepCount reports the number of completed time steps.
func (s *Solver) StepCount() int { return s.step }

// Comm exposes the communicator for collective diagnostics.
func (s *Solver) Comm() *mpi.Comm { return s.comm }

// System exposes the equation set the solver advances.
func (s *Solver) System() System { return s.sys }

// Fields reports the number of spectral fields the system advances
// (≥3; the first three are velocity).
func (s *Solver) Fields() int { return s.nf }

// Field returns the c-th spectral field ([mz][ny][nxh], code units).
// Fields 0–2 are the velocity components (also reachable as Uh);
// higher indices are system-defined (e.g. passive scalars).
func (s *Solver) Field(c int) []complex128 { return s.state[c] }

// SystemDiagnostics reports the active system's named diagnostics
// (collective).
func (s *Solver) SystemDiagnostics() []Diagnostic { return s.sys.Diagnostics(s) }

// Transform exposes the distributed transform pair, used by the
// asynchronous pipeline benchmarks to drive the same data layout.
func (s *Solver) Transform() Transform {
	if t, ok := s.tr.(*timedTransform); ok {
		return t.inner
	}
	return s.tr
}

// StepStallError is a communication stall annotated with where the
// simulation was when it fired: a deadline-bounded transform wait (see
// core.Options.WaitDeadline) blew its budget during this step. It
// reaches the caller through mpi.TryRun wrapped in a *mpi.RankError;
// errors.As extracts it, and Unwrap exposes the underlying
// *mpi.StallError naming the blocked rank and collective.
type StepStallError struct {
	Step int     // completed-step count when the stall fired
	Time float64 // simulation time at the start of the failed step
	Err  *mpi.StallError
}

func (e *StepStallError) Error() string {
	return fmt.Sprintf("spectral: step %d (t=%.6g): %v", e.Step, e.Time, e.Err)
}

func (e *StepStallError) Unwrap() error { return e.Err }

// annotateStall re-raises a *mpi.StallError escaping a step as a
// *StepStallError carrying the solver's step counter and clock; every
// other panic value passes through untouched.
func (s *Solver) annotateStall() {
	e := recover()
	if e == nil {
		return
	}
	if st, ok := e.(*mpi.StallError); ok {
		panic(&StepStallError{Step: s.step, Time: s.time, Err: st})
	}
	panic(e)
}

// Step advances the solution by dt using the configured scheme. With
// metrics enabled it records the step wall time (phase.step) and the
// wall time not spent inside transforms (phase.compute).
//
//psdns:hotpath
func (s *Solver) Step(dt float64) {
	defer s.annotateStall()
	if !s.met.step.Enabled() {
		s.stepInner(dt)
		return
	}
	s.trSecs = 0
	t0 := time.Now()
	s.stepInner(dt)
	wall := time.Since(t0).Seconds()
	s.met.step.Observe(wall)
	s.met.compute.Observe(max(0, wall-s.trSecs))
}

//psdns:hotpath
func (s *Solver) stepInner(dt float64) {
	// Restart the within-step site labels (see atSite): the step body
	// issues an identical transform sequence every step, so call i of
	// step k+1 republishes the same quantity call i of step k did.
	s.atSite = 0
	if s.cfg.Dealias == Dealias23Shift {
		// A new random-but-deterministic shift per step, identical on
		// every rank (depends only on the step counter).
		s.shift = stepShift(s.step, s.cfg.N)
	}
	switch s.cfg.Scheme {
	case RK2:
		s.stepRK2(dt)
	case RK4:
		s.stepRK4(dt)
	default:
		panic(fmt.Sprintf("spectral: unknown scheme %d", s.cfg.Scheme))
	}
	s.sys.PostStep(s, dt)
	s.step++
	s.time += dt
}

// stepRK2 is Heun's method with the exact diffusive integrating
// factor, over all nf system fields:
//
//	u*      = E(dt)·(uⁿ + dt·N(uⁿ))
//	uⁿ⁺¹    = E(dt)·uⁿ + dt/2·(E(dt)·N(uⁿ) + N(u*))
//
// where E(dt) = exp(−ν_c·k²·dt) per field.
//
//psdns:hotpath
func (s *Solver) stepRK2(dt float64) {
	s.sys.Nonlinear(s, s.state, s.nl)
	s.atCorrect()
	for c := 0; c < s.nf; c++ {
		copy(s.save[c], s.state[c])
	}
	s.applyIF(s.save, dt) // save = E·uⁿ
	for c := 0; c < s.nf; c++ {
		u, nl := s.state[c], s.nl[c]
		for i := range u {
			u[i] += complex(dt, 0) * nl[i]
		}
	}
	s.applyIF(s.state, dt) // state = E·(uⁿ + dt·N(uⁿ)) = u*
	s.applyIF(s.nl, dt)    // nl = E·N(uⁿ)
	// Second stage: evaluate N at u*.
	for c := 0; c < s.nf; c++ {
		s.acc[c], s.nl[c] = s.nl[c], s.acc[c] // keep E·N(uⁿ) in acc
	}
	s.sys.Nonlinear(s, s.state, s.nl)
	half := complex(dt/2, 0)
	for c := 0; c < s.nf; c++ {
		u, sv, ac, nl := s.state[c], s.save[c], s.acc[c], s.nl[c]
		for i := range u {
			u[i] = sv[i] + half*(ac[i]+nl[i])
		}
	}
}

// stepRK4 is the classical four-stage scheme with integrating factors
// split at the half step (E½ = exp(−ν_c·k²·dt/2)):
//
//	k1 = N(uⁿ)
//	k2 = N(E½·(uⁿ + dt/2·k1))
//	k3 = N(E½·uⁿ + dt/2·k2)
//	k4 = N(E·uⁿ + dt·E½·k3)
//	uⁿ⁺¹ = E·uⁿ + dt/6·(E·k1 + 2·E½·k2 + 2·E½·k3 + k4)
//
//psdns:hotpath
func (s *Solver) stepRK4(dt float64) {
	h := dt
	copyFields(s.save, s.state) // uⁿ
	// Stage 1: k1 = N(uⁿ).
	s.sys.Nonlinear(s, s.state, s.nl)
	s.atCorrect()
	copyFields(s.rk1, s.nl)
	copyFields(s.rku, s.save)
	addScaled(s.rku, s.rk1, h/2)
	s.applyIF(s.rku, h/2)
	// Stage 2: k2 = N(E½·(uⁿ + h/2·k1)).
	s.sys.Nonlinear(s, s.rku, s.nl)
	copyFields(s.rk2, s.nl)
	copyFields(s.rku, s.save)
	s.applyIF(s.rku, h/2)
	addScaled(s.rku, s.rk2, h/2)
	// Stage 3: k3 = N(E½·uⁿ + h/2·k2).
	s.sys.Nonlinear(s, s.rku, s.nl)
	copyFields(s.rk3, s.nl) // k3, folded to E½·k3 below
	copyFields(s.rku, s.save)
	s.applyIF(s.rku, h)
	s.applyIF(s.rk3, h/2) // E½·k3
	addScaled(s.rku, s.rk3, h)
	// Stage 4: k4 = N(E·uⁿ + h·E½·k3).
	s.sys.Nonlinear(s, s.rku, s.nl)
	// Assemble: uⁿ⁺¹ = E·uⁿ + h/6·(E·k1 + 2E½·k2 + 2E½·k3 + k4).
	s.applyIF(s.save, h) // E·uⁿ
	s.applyIF(s.rk1, h)  // E·k1
	s.applyIF(s.rk2, h/2)
	sixth := complex(h/6, 0)
	for c := 0; c < s.nf; c++ {
		u, sv, k1, k2, k3, k4 := s.state[c], s.save[c], s.rk1[c], s.rk2[c], s.rk3[c], s.nl[c]
		for i := range u {
			u[i] = sv[i] + sixth*(k1[i]+2*k2[i]+2*k3[i]+k4[i])
		}
	}
}

// atCorrect applies the Kumari–Donzis first-order asynchrony
// correction to the first-stage nonlinear term. Bounded exchanges let
// slabs gathered from lagging peers be up to maxStale epochs old, so
// the nonlinear term just evaluated is effectively delayed in time;
// extrapolating it forward through its previous-step value,
//
//	N_corrected = N + w·(N − N_prev),   w = mean data age (steps)
//
// cancels the leading-order staleness error while leaving the scheme
// untouched when nothing was stale. The plans report each accepted
// stale slab's age in same-site cycles, which the solver's per-step
// site labeling makes whole time steps, so the weight is simply the
// mean age of the peer slabs gathered since the previous drain —
// sum/(calls·(P−1)) over the window's calls·(P−1) peer slabs — with
// no unit conversion. A per-slab mean is invariant to how many
// exchanges the drained window happened to cover (the first window of
// a run covers a single nonlinear evaluation, where a fixed
// per-scheme divisor would inflate the weight by the stage count).
// Clamped to [0, 1]: one step of delay, N − N_prev, is the most the
// first-order extrapolation can honestly correct. With zero observed
// staleness the term is only recorded, never modified, so a
// straggler-free AT run stays bitwise identical to the synchronous
// scheme. Rank-local by design: each rank corrects its own slab by
// the staleness it actually absorbed.
//
//psdns:hotpath
func (s *Solver) atCorrect() {
	if !s.atCorr {
		return
	}
	_, sum, _, calls := s.atSrc.TakeStaleness()
	w := 0.0
	if ranks := s.comm.Size() - 1; sum > 0 && calls > 0 && ranks > 0 {
		w = float64(sum) / (float64(calls) * float64(ranks))
		if w > 1 {
			w = 1
		}
	}
	if w == 0 || !s.atHave {
		copyFields(s.atPrevNl, s.nl)
		s.atHave = true
		return
	}
	s.atSteps++
	cw := complex(w, 0)
	for c := 0; c < s.nf; c++ {
		nl, prev := s.nl[c], s.atPrevNl[c]
		for i := range nl {
			old := nl[i]
			nl[i] = old + cw*(old-prev[i])
			prev[i] = old
		}
	}
}

// ATCorrections reports how many steps received a nonzero
// asynchrony-tolerant staleness correction on this rank (zero when
// WithAsyncTolerance is off or no exchange ever gathered stale
// slabs).
func (s *Solver) ATCorrections() int { return s.atSteps }

// copyFields copies every component of src into the preallocated dst
// (the zero-allocation replacement of the old per-stage clones).
func copyFields(dst, src [][]complex128) {
	for c := range dst {
		copy(dst[c], src[c])
	}
}

// addScaled computes dst += a·src elementwise on all components.
func addScaled(dst, src [][]complex128, a float64) {
	ca := complex(a, 0)
	for c := range dst {
		d, s := dst[c], src[c]
		for i := range d {
			d[i] += ca * s[i]
		}
	}
}

// applyIF multiplies each mode of every diffusive field by its
// integrating factor exp(−ν_c·k²·dt). Fields sharing a diffusivity
// share one exponential per mode (for plain NS: one exp, three
// fields — the pre-registry arithmetic exactly).
//
//psdns:hotpath
func (s *Solver) applyIF(f [][]complex128, dt float64) {
	if dt == 0 || len(s.difGroups) == 0 {
		return
	}
	n, mz, nxh := s.cfg.N, s.slab.MZ(), s.nxh
	for _, g := range s.difGroups {
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

// stepShift derives a deterministic pseudo-random phase shift for the
// given step, identical across ranks; shifts are in grid units of the
// physical mesh spacing 2π/N.
func stepShift(step, n int) [3]float64 {
	h := 2 * math.Pi / float64(n)
	// Small linear congruential scramble; any rank-independent choice
	// works since aliasing cancellation only needs decorrelated shifts.
	a := uint64(step)*6364136223846793005 + 1442695040888963407
	s0 := float64(a>>11&1023) / 1023.0
	s1 := float64(a>>31&1023) / 1023.0
	s2 := float64(a>>51&1023) / 1023.0
	return [3]float64{s0 * h, s1 * h, s2 * h}
}
