package repro

import "repro/internal/spectral"

// --- Solver ---------------------------------------------------------------

// Solver advances one equation set (a System) pseudo-spectrally on a
// slab-decomposed periodic cube.
type Solver = spectral.Solver

// Stats bundles single-time turbulence statistics.
type Stats = spectral.Stats

// GradientStats holds one-point velocity-gradient moments.
type GradientStats = spectral.GradientStats

// Particles is a set of Lagrangian fluid tracers.
type Particles = spectral.Particles

// Transform is the distributed 3D FFT engine contract; both the
// synchronous reference and the asynchronous pipeline satisfy it. Its
// Truncate method is how a dealiased solver tells the engine its 2/3
// band, so the y and z passes skip the lines that are zero by
// construction; NewSolver calls it, callers need not.
type Transform = spectral.Transform

// StepStallError is a communication stall annotated with the solver
// step and simulation time at which it fired, on every engine; it
// wraps the underlying *StallError and surfaces through TryRun.
type StepStallError = spectral.StepStallError

// Time-integration schemes.
const (
	RK2 = spectral.RK2
	RK4 = spectral.RK4
)

// Dealiasing modes.
const (
	DealiasNone    = spectral.DealiasNone
	Dealias23      = spectral.Dealias23
	Dealias23Shift = spectral.Dealias23Shift
)

// --- Equation-set registry ------------------------------------------------

// System is a pluggable equation set advanced by the solver's generic
// integrating-factor Runge–Kutta stepper: it declares its field count,
// evaluates the nonlinear right-hand side, supplies per-field
// diffusivities, and reports named diagnostics. Three systems ship
// registered: "ns" (decaying Navier–Stokes), "forced-ns"
// (stochastically forced stationary turbulence) and "rotating-scalar"
// (NS + passive scalars + frame rotation).
type System = spectral.System

// SystemSpec carries the physics parameters a system factory builds
// from; factories read the fields they understand.
type SystemSpec = spectral.SystemSpec

// SystemFactory builds a fresh System instance from a spec.
type SystemFactory = spectral.SystemFactory

// ScalarSpec configures one passive scalar (Schmidt number, optional
// imposed mean gradient).
type ScalarSpec = spectral.ScalarSpec

// ForcingSpec configures the stochastic large-scale forcing (band,
// injection rate, phase decorrelation time, seed).
type ForcingSpec = spectral.ForcingSpec

// Diagnostic is one named scalar a System reports.
type Diagnostic = spectral.Diagnostic

// StochasticForcing is the "forced-ns" controller: exact-rate energy
// injection into the large scales plus an optional seeded phase walk.
type StochasticForcing = spectral.StochasticForcing

// RegisterSystem adds an equation set to the registry (typically from
// an init function); registering a duplicate name panics.
func RegisterSystem(name string, f SystemFactory) { spectral.RegisterSystem(name, f) }

// Systems returns the registered equation-set names, sorted.
func Systems() []string { return spectral.Systems() }

// SystemCode returns a system's index in the sorted registry — the
// value of the solver.system gauge — or −1 if the name is unknown.
func SystemCode(name string) int { return spectral.SystemCode(name) }

// NewNamedSystem builds a registered system from a spec; an unknown
// name returns an error listing what is registered.
func NewNamedSystem(name string, spec SystemSpec) (System, error) {
	return spectral.NewNamedSystem(name, spec)
}

// SolverOption configures NewSolver.
type SolverOption = spectral.Option

// WithNu sets the kinematic viscosity.
func WithNu(nu float64) SolverOption { return spectral.WithNu(nu) }

// WithScheme selects the time integrator (RK2 or RK4).
func WithScheme(sch spectral.Scheme) SolverOption { return spectral.WithScheme(sch) }

// WithDealias selects the aliasing control.
func WithDealias(d spectral.Dealias) SolverOption { return spectral.WithDealias(d) }

// WithTransform runs the solver on a caller-chosen transform engine
// (e.g. NewAsync's pipeline) instead of the synchronous slab default.
// An engine built WithBoundedStaleness makes the solver
// asynchrony-tolerant: it labels every transform call with its site
// and corrects the nonlinear term for the staleness the engine absorbs.
func WithTransform(tr Transform) SolverOption { return spectral.WithTransform(tr) }

// WithSystem selects a registered equation set by name; construction
// panics on an unknown name, listing the registered ones.
func WithSystem(name string) SolverOption { return spectral.WithSystem(name) }

// WithSystemInstance installs a caller-built System directly,
// bypassing the registry.
func WithSystemInstance(sys System) SolverOption { return spectral.WithSystemInstance(sys) }

// WithForcing enables stochastic forcing over shells k ≤ kf with
// energy injection rate eps (selects "forced-ns" unless a system is
// named explicitly).
func WithForcing(kf int, eps float64) SolverOption { return spectral.WithForcing(kf, eps) }

// WithForcingNoise adds a seeded random phase walk with decorrelation
// time tcorr to the forcing.
func WithForcingNoise(tcorr float64, seed int64) SolverOption {
	return spectral.WithForcingNoise(tcorr, seed)
}

// WithScalars attaches n passive scalars with the given Schmidt
// numbers (selects "rotating-scalar" unless a system is named
// explicitly).
func WithScalars(n int, sc ...float64) SolverOption { return spectral.WithScalars(n, sc...) }

// WithScalarGradient imposes a uniform mean gradient G·ŷ on every
// scalar declared so far.
func WithScalarGradient(g float64) SolverOption { return spectral.WithScalarGradient(g) }

// WithRotation sets the frame rotation rate Ω about ẑ (selects
// "rotating-scalar" unless a system is named explicitly).
func WithRotation(omega float64) SolverOption { return spectral.WithRotation(omega) }

// --- Constructor ----------------------------------------------------------

// NewSolver builds a solver for an n³ grid with functional options:
//
//	s := repro.NewSolver(c, 64,
//	    repro.WithNu(0.01),
//	    repro.WithScheme(repro.RK2),
//	    repro.WithDealias(repro.Dealias23),
//	    repro.WithForcing(2, 0.5),
//	)
//
// The equation set is chosen with WithSystem/WithSystemInstance or
// inferred from the physics options; the default is decaying NS on the
// synchronous reference transform.
func NewSolver(c *Comm, n int, opts ...SolverOption) *Solver {
	return spectral.New(c, n, opts...)
}

// Regrid spectrally transfers src's velocity field onto dst (larger or
// smaller grid, same communicator).
func Regrid(dst, src *Solver) { spectral.Regrid(dst, src) }

// WriteSlicePNG renders a gathered plane with a diverging colormap.
var WriteSlicePNG = spectral.WriteSlicePNG
