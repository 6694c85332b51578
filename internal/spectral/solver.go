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
	// RK4 is the classical fourth-order scheme (§2 of the paper):
	// twice RK2's nonlinear evaluations per step in RK2's storage (the
	// state and three band field sets), plus the half-step
	// integrating-factor table and its plane.
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
	// Dealias23 zeroes every mode with |k_i| > N/3 (2/3-rule) in each
	// nonlinear term, and tells the transform engine so
	// (Transform.Truncate at grid.DealiasKmax): no pass of the engine
	// computes a coefficient the truncation would overwrite or reads a
	// factor's mode outside the band, and the solver's flux, Coriolis,
	// projection and phase-shift loops visit only the in-band modes,
	// storing +0 over the rest of each right-hand side. The rule assumes
	// band-limited factors, and a state the solver itself produced is —
	// so stepping is bit for bit what it is on a full transform. State
	// put outside the band by hand (writing Uh, SetFieldSingleMode beyond
	// N/3, Regrid onto a smaller grid) is inert: it decays by its
	// integrating factor and shows in the spectral diagnostics, but
	// never enters a product.
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
// fields through, on the slab decomposition its state is laid out in.
// pfft.SlabReal implements it on one column in every configuration —
// the synchronous slab (np = 1) and the batched asynchronous GPU
// pipeline alike — so the full DNS runs on either. On a Pr×Pc grid
// with Pc > 1 it has no slab geometry: Slab and NXH panic there.
type Transform interface {
	// FourierToPhysical converts [mz][ny][nxh] complex (code units)
	// into [my][nz][nx] real, applying 1/N³; the input is scratch.
	FourierToPhysical(phys []float64, four []complex128)
	// PhysicalToFourier is the unnormalized adjoint direction.
	PhysicalToFourier(four []complex128, phys []float64)
	// Truncate band-limits both directions to the modes with every
	// |k_i| ≤ kmax; kmax < 0 or ≥ N/2 is the full transform. After it
	// FourierToPhysical does not read the modes outside the band (they
	// are taken as zero; nor does it write them, the input being
	// scratch) and PhysicalToFourier returns exactly +0 there, while
	// every mode inside is, bit for bit, what the full transform gives
	// for a spectrum that is +0 outside — so an engine may skip the y
	// and z lines that are zero by construction, stop its x lines' r2c
	// stores and c2r loads at the last in-band bin, and exchange only
	// the in-band part of each slab. Plan time; every rank truncates to
	// the same band.
	Truncate(kmax int)
	Slab() grid.Slab
	NXH() int
	// FourierLen is the allocation length of a Fourier buffer: C's
	// length on the one column the solver runs.
	FourierLen() int
	PhysicalLen() int
}

// difGroup is a run of consecutive fields sharing one diffusion
// coefficient, with the group's integrating factor exp(−ν·k²·dt)
// tabulated by the integer k² = kx²+ky²+kz² ≤ 3(N/2)²: slot 0 holds the
// full step dt, slot 1 (RK4 only) the half step. A slot is refilled in
// place when its dt changes, so a fixed-dt run evaluates no exponential
// after the first step and an adaptive one 3(N/2)²+1 per slot per step.
// Inviscid groups (ν = 0) carry no tables: their factor is the
// identity and the stage sweeps skip the multiply.
type difGroup struct {
	nu     float64
	lo, hi int // fields [lo, hi)
	tab    [2][]float64
	tabDt  [2]float64 // dt each slot was filled for (0 = never)
}

// Solver advances one equation set (a System) on one MPI rank of a
// slab-decomposed domain. All ranks of the communicator must construct
// a Solver and call its collective methods (Step, Energy, …) in the
// same order.
//
// The Solver owns the numerics — field storage, RK stage buffers,
// wavenumber tables, the dealias band, distributed transforms — and
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

	// Scratch for the pseudo-spectral nonlinear term. The right-hand
	// sides and the stage buffers below are band fields (see bandRow):
	// a right-hand side is +0 outside the band, so only the band is
	// stored, and state is the one field set in the slab layout.
	physU [3][]float64   // velocity in physical space, then its products (prodInto)
	nl    [][]complex128 // per-field right-hand side
	work  []complex128
	zeros []complex128 // one plane of +0 right-hand side (see stageSweep)
	// RK2 stage storage: save = E·uⁿ, acc = E·N(uⁿ).
	save [][]complex128
	acc  [][]complex128
	// RK4 stage storage, as many field sets as RK2's: un is uⁿ while
	// state carries the stage input; k2, k3 and k4 take turns in rk,
	// straight from the system; nl holds k1 and then the running sum
	// the final sweep completes.
	un [][]complex128
	rk [][]complex128

	// difGroups partition the fields into runs of equal diffusivity,
	// each with its integrating-factor tables; ifPlane is the factor of
	// one Fourier plane gathered from a table (slot-indexed like the
	// tables).
	difGroups []difGroup
	ifPlane   [2][]float64

	// Wavenumber tables for the local Fourier slab, and their integer
	// squares (the index into a difGroup table is k2x+k2y+k2z).
	kxs []float64 // length nxh
	kys []float64 // length n
	kzs []float64 // length mz (global z = zLo+iz)
	k2x []int
	k2y []int
	k2z []int

	// The band every nonlinear term is dealiased to and the transform is
	// truncated to, |k_i| ≤ kmax, as a row list: rows are the x-rows of
	// the local Fourier slab whose kz and ky are in it, in storage order,
	// and the in-band modes of each are its first kb. The right-hand-side
	// loops visit those prefixes only, and the band fields store nothing
	// else.
	rows []bandRow
	kb   int
	kmax int

	step  int
	time  float64
	shift [3]float64 // current phase shift (Dealias23Shift)

	met    *solverMetrics
	trSecs float64 // seconds inside transform calls this step

	// The persistent 1-element max-reduction CFL and DivergenceMax run
	// through (SuggestDt runs before every adaptive step), and the
	// element it reduces in place.
	red    *mpi.ReducePlan
	redBuf [1]float64

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

// Close releases the solver's collectively-registered resources: its
// diagnostics' reduction plan, the system's persistent plans (through
// an optional Close method, e.g. the forced systems' band-energy
// ReducePlan) and, when the solver constructed its own transform
// engine, that engine's exchange and all-to-all plans. Collective —
// every rank must call it — and idempotent. Solvers running on a
// caller-supplied transform leave the engine open for the caller to
// close.
func (s *Solver) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.red.Free()
	if c, ok := s.sys.(interface{ Close() }); ok {
		c.Close()
	}
	if s.ownTr {
		if c, ok := s.Transform().(interface{ Close() }); ok {
			c.Close()
		}
		return
	}
	s.tr.Truncate(-1) // the caller's engine goes back as it came: full
}

// OwnTransform transfers ownership of a caller-supplied transform to
// the solver: Close will close the engine along with the system. For
// call sites that build a transform solely for one solver and never
// touch it again (a builder returning just the *Solver); a transform
// shared across solvers must stay caller-owned.
func (s *Solver) OwnTransform() { s.ownTr = true }

// stalenessReporter is the staleness-accounting contract an
// asynchrony-tolerant transform engine exposes (pfft.SlabReal
// implements it): drain the window of bounded
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
	// The band every product is dealiased to is the band the engine
	// needs to transform.
	kmax := -1 // DealiasNone: every mode
	if cfg.Dealias != DealiasNone {
		kmax = grid.DealiasKmax(cfg.N)
	}
	band := grid.NewBand(cfg.N, kmax)
	s.kmax = band.Kmax
	s.tr.Truncate(s.kmax)
	fl, pl := tr.FourierLen(), tr.PhysicalLen()
	fields := func(n int) [][]complex128 {
		f := make([][]complex128, nf)
		for c := range f {
			f[c] = make([]complex128, n)
		}
		return f
	}
	s.initModes(band)
	s.state, s.nl = fields(fl), fields(s.BandLen())
	for c := 0; c < 3; c++ {
		s.Uh[c] = s.state[c]
		s.physU[c] = make([]float64, pl)
	}
	s.work, s.zeros = make([]complex128, fl), make([]complex128, cfg.N*s.nxh)
	slots := 1 // integrating-factor slots: dt, and dt/2 for RK4
	if cfg.Scheme == RK4 {
		s.un, s.rk = fields(s.BandLen()), fields(s.BandLen())
		slots = 2
	} else {
		s.save, s.acc = fields(s.BandLen()), fields(s.BandLen())
	}
	if at {
		src, ok := tr.(stalenessReporter)
		if !ok {
			panic(fmt.Sprintf("spectral: WithAsyncTolerance needs an asynchrony-tolerant transform (pfft.NewSlabRealAT, or pfft.Options with exchange.AT); %T cannot report staleness", tr))
		}
		s.atCorr = true
		s.atSrc = src
		s.atPrevNl = fields(s.BandLen())
		// Engines that accept quantity labels get every transform call
		// stamped with the within-step call index, so their bounded
		// exchanges only substitute stale slabs of the same quantity.
		if lab, ok := tr.(atSiteLabeler); ok {
			tt := s.tr.(*timedTransform)
			tt.lab, tt.site = lab, &s.atSite
		}
	}

	n := cfg.N

	// Fold per-field diffusivities into runs of equal ν, one set of
	// integrating-factor tables per diffusive run.
	for i := 0; i < slots; i++ {
		s.ifPlane[i] = make([]float64, n*s.nxh)
	}
	for c := 0; c < nf; {
		nu := sys.Diffusivity(c)
		if nu < 0 {
			panic(fmt.Sprintf("spectral: system %q: negative diffusivity %g for field %d", sys.Name(), nu, c))
		}
		hi := c + 1
		for hi < nf && sys.Diffusivity(hi) == nu {
			hi++
		}
		g := difGroup{nu: nu, lo: c, hi: hi}
		for i := 0; nu != 0 && i < slots; i++ {
			g.tab[i] = make([]float64, 3*(n/2)*(n/2)+1)
		}
		s.difGroups = append(s.difGroups, g)
		c = hi
	}

	s.red = mpi.NewReducePlan(comm, 1)
	sys.Setup(s)
	comm.Metrics().GaugeRank("solver.system", comm.Rank()).Set(float64(SystemCode(sys.Name())))
	return s
}

// N reports the linear grid size.
func (s *Solver) N() int { return s.cfg.N }

// Slab reports the decomposition geometry of this rank.
func (s *Solver) Slab() grid.Slab { return s.slab }

// Kmax reports the band the solver transforms: every product is
// dealiased to, and the engine truncated to, the modes with all
// |k_i| ≤ Kmax — grid.DealiasKmax(N) under the 2/3 rule, N/2 (every
// mode) without dealiasing.
func (s *Solver) Kmax() int { return s.kmax }

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
// simulation was when it fired: the watchdog (mpi.Watchdog) declared
// a stall during this step and named this rank, which was waiting
// inside a transform's exchange — on every engine and strategy. It
// reaches the caller through mpi.TryRun wrapped in a *mpi.RankError;
// errors.As extracts it, and Unwrap exposes the underlying
// *mpi.StallError naming the blocked rank and operation.
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
// where E(dt) = exp(−ν_c·k²·dt) per field. The state is touched once
// between the two evaluations (stageSweep) and its band once after the
// second; save, acc and nl are band fields.
//
//psdns:hotpath
func (s *Solver) stepRK2(dt float64) {
	s.sys.Nonlinear(s, s.state, s.nl)
	s.atCorrect()
	s.stageSweep(sweepRK2, dt) // save = E·uⁿ, state = u*, acc = E·N(uⁿ)
	s.sys.Nonlinear(s, s.state, s.nl)
	s.stageSweep(sweepRK2end, dt) // uⁿ⁺¹ = save + dt/2·(acc + N(u*))
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
// in RK2's storage. The first sweep copies the band of uⁿ into un, and
// state carries each stage's input from then on; k2, k3 and k4 take
// turns in rk, each evaluated straight into it; nl holds k1 and then
// the running prefix of the final bracket, E·k1 + 2·E½·k2 after sweep b
// and + 2·E½·k3 after sweep c, each prefix rounded where the whole
// left-to-right sum rounds it. A stage costs one sweep and no copy.
//
//psdns:hotpath
func (s *Solver) stepRK4(dt float64) {
	s.sys.Nonlinear(s, s.state, s.nl) // k1
	s.atCorrect()
	s.stageSweep(sweepRK4a, dt) // un = uⁿ, state = E½·(uⁿ + dt/2·k1)
	s.sys.Nonlinear(s, s.state, s.rk)
	s.stageSweep(sweepRK4b, dt) // state = E½·uⁿ + dt/2·k2, nl = E·k1 + 2·E½·k2
	s.sys.Nonlinear(s, s.state, s.rk)
	s.stageSweep(sweepRK4c, dt) // state = E·uⁿ + dt·E½·k3, nl += 2·E½·k3
	s.sys.Nonlinear(s, s.state, s.rk)
	s.stageSweep(sweepRK4end, dt) // uⁿ⁺¹ = E·uⁿ + dt/6·(nl + k4)
}

// sweep names the pointwise update between two nonlinear evaluations.
type sweep int

const (
	sweepRK2 sweep = iota
	sweepRK2end
	sweepRK4a
	sweepRK4b
	sweepRK4c
	sweepRK4end
)

// stageSweep runs one stage's pointwise update over every field, plane
// by plane: each group's integrating factor is gathered from its k²
// table once per plane and shared by the group's fields. In the band
// every output element is the expression the unfused copy/axpy/factor
// passes produced, operation for operation, so results are bitwise
// unchanged; a group whose factor is the identity (ν = 0, or dt = 0)
// passes nil factors and the kernels take their multiply-free loop —
// multiplying by complex(1, 0) is not neutral at signed zeros.
//
// Outside the band every right-hand side is +0, and so is every factor
// times it (E is finite and non-negative), so a mode there ends the
// step at the final combination's value with every right-hand-side
// operand at +0: E·uⁿ + w·(+0 + +0), w = dt/2 (RK2) or dt/6 (RK4). The
// first sweep of a step stores that value there, running the final
// combination's kernel over zeros; the later ones visit only the band
// rows, as nothing reads the state outside the band mid-step (the
// transforms are truncated to it).
//
//psdns:hotpath
func (s *Solver) stageSweep(sw sweep, dt float64) {
	pl, kb, rows := s.cfg.N*s.nxh, s.kb, s.rows
	cdt, half, sixth := complex(dt, 0), complex(dt/2, 0), complex(dt/6, 0)
	first, w := sw == sweepRK2 || sw == sweepRK4a, [...]complex128{RK2: half, RK4: sixth}[s.cfg.Scheme]
	for iz, lo := 0, 0; iz < s.slab.MZ(); iz, lo = iz+1, lo+pl {
		nr := 0
		for nr < len(rows) && int(rows[nr].iz) == iz {
			nr++
		}
		plane := rows[:nr]
		if rows = rows[nr:]; !first && nr == 0 {
			continue
		}
		for gi := range s.difGroups {
			g := &s.difGroups[gi]
			var e, eh []float64 // the plane's factors at dt and dt/2
			if g.nu != 0 && dt != 0 && sw != sweepRK2end {
				e = s.ifGather(g, 0, dt, iz)
				if sw > sweepRK2end {
					eh = s.ifGather(g, 1, dt/2, iz)
				}
			}
			for c := g.lo; c < g.hi; c++ {
				u, next := s.state[c], lo
				for _, r := range plane {
					if first {
						rk4Assemble(e, next-lo, w, u[next:r.off], u[next:r.off], s.zeros, s.zeros)
						next = r.off + kb
					}
					ur, b, at, nl := u[r.off:r.off+kb], r.boff, r.off-lo, s.nl[c][r.boff:r.boff+kb]
					switch sw {
					case sweepRK2:
						rk2Stage(e, at, cdt, ur, nl, s.save[c][b:b+kb], s.acc[c][b:b+kb])
					case sweepRK2end:
						rk4Assemble(nil, 0, half, ur, s.save[c][b:b+kb], s.acc[c][b:b+kb], nl)
					case sweepRK4a:
						rk4StageA(eh, at, half, ur, s.un[c][b:b+kb], nl)
					case sweepRK4b:
						rk4StageB(e, eh, at, half, ur, s.un[c][b:b+kb], s.rk[c][b:b+kb], nl)
					case sweepRK4c:
						rk4StageC(e, eh, at, cdt, ur, s.un[c][b:b+kb], s.rk[c][b:b+kb], nl)
					case sweepRK4end:
						rk4Assemble(e, at, sixth, ur, s.un[c][b:b+kb], nl, s.rk[c][b:b+kb])
					}
				}
				if first {
					rk4Assemble(e, next-lo, w, u[next:lo+pl], u[next:lo+pl], s.zeros, s.zeros)
				}
			}
		}
	}
}

// StageSweep runs the scheme's first stage sweep alone, over whatever
// the state and right-hand-side buffers hold — the arithmetic Step
// performs between its first two evaluations, exposed so cmd/bench can
// time one sweep against the bytes it moves.
func (s *Solver) StageSweep(dt float64) {
	if s.cfg.Scheme == RK4 {
		s.stageSweep(sweepRK4a, dt)
		return
	}
	s.stageSweep(sweepRK2, dt)
}

// BandLen reports the elements of one band field — a right-hand side
// or a stage buffer: the band's x-rows on this rank times their
// in-band modes (FourierLen without dealiasing).
func (s *Solver) BandLen() int { return len(s.rows) * s.kb }

// ifGather returns plane iz of g's integrating factor exp(−ν·k²·dt),
// gathered from the slot's table into the slot's plane buffer. The
// table is refilled first if the slot last held another dt; its entries
// are the per-mode expression exactly, k² being an exact integer.
//
//psdns:hotpath
func (s *Solver) ifGather(g *difGroup, slot int, dt float64, iz int) []float64 {
	tab := g.tab[slot]
	if g.tabDt[slot] != dt {
		for k2 := range tab {
			tab[k2] = math.Exp(-g.nu * float64(k2) * dt)
		}
		g.tabDt[slot] = dt
	}
	dst, nxh := s.ifPlane[slot], s.nxh
	for iy, ky2 := range s.k2y {
		row, t := dst[iy*nxh:(iy+1)*nxh], tab[s.k2z[iz]+ky2:]
		for ix, kx2 := range s.k2x {
			row[ix] = t[kx2]
		}
	}
	return dst
}

// The kernels below update the modes of one run of a plane; e and eh
// are the plane's gathered factors, read from plane offset at, or nil
// for the identity.

// rk2Stage: sv = E·u, u = E·(u + dt·n), ac = E·n.
//
//psdns:hotpath
func rk2Stage(e []float64, at int, cdt complex128, u, n, sv, ac []complex128) {
	n, sv, ac = n[:len(u)], sv[:len(u)], ac[:len(u)]
	if e == nil {
		copy(sv, u)
		axpyTo(u, u, cdt, n)
		copy(ac, n)
		return
	}
	e = e[at : at+len(u)]
	for i, ui := range u {
		ei, ni := complex(e[i], 0), n[i]
		sv[i] = ui * ei
		u[i] = (ui + cdt*ni) * ei
		ac[i] = ni * ei
	}
}

// rk4StageA: un = u, u = E½·(u + a·k).
//
//psdns:hotpath
func rk4StageA(eh []float64, at int, a complex128, u, un, k []complex128) {
	copy(un, u)
	if eh == nil {
		axpyTo(u, u, a, k)
		return
	}
	eh, k = eh[at:at+len(u)], k[:len(u)]
	for i := range u {
		u[i] = (u[i] + a*k[i]) * complex(eh[i], 0)
	}
}

// rk4StageB: dst = E½·u + a·k, acc = E·acc + 2·(E½·k) — acc holds k1
// and leaves with the first two terms of rk4Assemble's bracket.
//
//psdns:hotpath
func rk4StageB(e, eh []float64, at int, a complex128, dst, u, k, acc []complex128) {
	if eh == nil {
		rk4Inviscid(a, dst, u, k, acc)
		return
	}
	e, eh, u, k, acc = e[at:at+len(dst)], eh[at:at+len(dst)], u[:len(dst)], k[:len(dst)], acc[:len(dst)]
	for i := range dst {
		ehi, ki := complex(eh[i], 0), k[i]
		dst[i] = u[i]*ehi + a*ki
		acc[i] = acc[i]*complex(e[i], 0) + 2*(ki*ehi)
	}
}

// rk4StageC: dst = E·u + a·(E½·k), acc = acc + 2·(E½·k).
//
//psdns:hotpath
func rk4StageC(e, eh []float64, at int, a complex128, dst, u, k, acc []complex128) {
	if e == nil {
		rk4Inviscid(a, dst, u, k, acc)
		return
	}
	e, eh, u, k, acc = e[at:at+len(dst)], eh[at:at+len(dst)], u[:len(dst)], k[:len(dst)], acc[:len(dst)]
	for i := range dst {
		ki := k[i] * complex(eh[i], 0)
		dst[i] = u[i]*complex(e[i], 0) + a*ki
		acc[i] = acc[i] + 2*ki
	}
}

// rk4Inviscid is sweeps b and c under the identity factor: dst = u +
// a·k, acc = acc + 2·k.
//
//psdns:hotpath
func rk4Inviscid(a complex128, dst, u, k, acc []complex128) {
	u, k, acc = u[:len(dst)], k[:len(dst)], acc[:len(dst)]
	for i := range dst {
		ki := k[i]
		dst[i] = u[i] + a*ki
		acc[i] = acc[i] + 2*ki
	}
}

// rk4Assemble: dst = E·u + w·(acc + k4), acc holding the bracket's
// first three terms E·k1 + 2·E½·k2 + 2·E½·k3 and w = dt/6. With e nil
// and w = dt/2 it is RK2's final combination, u = sv + dt/2·(ac + n);
// over zeros it is either scheme's outside the band (dst may alias u).
//
//psdns:hotpath
func rk4Assemble(e []float64, at int, w complex128, dst, u, acc, k4 []complex128) {
	u, acc, k4 = u[:len(dst)], acc[:len(dst)], k4[:len(dst)]
	if e == nil {
		for i := range dst {
			dst[i] = u[i] + w*(acc[i]+k4[i])
		}
		return
	}
	e = e[at : at+len(dst)]
	for i := range dst {
		dst[i] = u[i]*complex(e[i], 0) + w*(acc[i]+k4[i])
	}
}

// axpyTo computes dst = u + a·k (dst may alias u).
//
//psdns:hotpath
func axpyTo(dst []complex128, u []complex128, a complex128, k []complex128) {
	u, k = u[:len(dst)], k[:len(dst)]
	for i := range dst {
		dst[i] = u[i] + a*k[i]
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
		for c := range s.nl {
			copy(s.atPrevNl[c], s.nl[c])
		}
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
