package spectral

import (
	"fmt"

	"repro/internal/exchange"
	"repro/internal/mpi"
	"repro/internal/pfft"
)

// Option configures New. The zero configuration is an inviscid,
// undealiased RK2 decaying-NS solver on the synchronous slab
// transform.
type Option func(*solverOptions)

type solverOptions struct {
	cfg     config
	tr      Transform
	sys     System
	sysName string
	spec    SystemSpec
}

// WithNu sets the kinematic viscosity.
func WithNu(nu float64) Option {
	return func(o *solverOptions) { o.cfg.Nu = nu }
}

// WithScheme selects the time integrator (RK2 or RK4).
func WithScheme(sch Scheme) Option {
	return func(o *solverOptions) { o.cfg.Scheme = sch }
}

// WithDealias selects the aliasing control.
func WithDealias(d Dealias) Option {
	return func(o *solverOptions) { o.cfg.Dealias = d }
}

// WithTransform runs the solver on a caller-chosen transform engine
// (e.g. the batched asynchronous pipeline, pfft.NewAsyncSlabReal)
// instead of the synchronous slab default. The solver truncates the engine to its
// dealiasing band (Transform.Truncate) and Close restores the full
// transform, so solvers sharing one engine must share one Dealias
// setting.
//
// Asynchrony tolerance is the engine's. On an engine whose pinned
// exchange is exchange.AT (pfft.Options{Exchange: exchange.AT,
// ATMaxStale: k, ATDeadline: d}) a rank proceeds on peers' slabs up to
// k epochs old, and the solver applies the Kumari–Donzis first-order
// staleness correction to the nonlinear term. It also labels every
// transform call with its within-step index, so a stale slab is only
// ever the same quantity from whole steps earlier. For plain NS under
// RK2 a step runs six exchanges on the forward plan and twelve on the
// inverse; a bound below a plan's per-step count admits no stale data
// on it, so k ≈ 6·stages tolerates about one step of lag. k = 0 is
// bitwise the synchronous run.
func WithTransform(tr Transform) Option {
	return func(o *solverOptions) { o.tr = tr }
}

// WithSystem selects a registered equation set by name ("ns",
// "forced-ns", "rotating-scalar", or any third-party registration).
// Construction panics on an unknown name, listing what is registered.
func WithSystem(name string) Option {
	return func(o *solverOptions) { o.sysName = name }
}

// WithSystemInstance installs a caller-built System directly,
// bypassing the registry (for systems with configuration the generic
// SystemSpec cannot express).
func WithSystemInstance(sys System) Option {
	return func(o *solverOptions) { o.sys = sys }
}

// WithForcing enables stochastic large-scale forcing over shells
// k ≤ kf with energy injection rate eps. Unless a system is named
// explicitly, this selects "forced-ns".
func WithForcing(kf int, eps float64) Option {
	return func(o *solverOptions) {
		o.spec.Forcing.KF = kf
		o.spec.Forcing.Eps = eps
	}
}

// WithForcingNoise adds a seeded random phase walk with decorrelation
// time tcorr to the forcing (zero tcorr keeps phases frozen).
func WithForcingNoise(tcorr float64, seed int64) Option {
	return func(o *solverOptions) {
		o.spec.Forcing.TCorr = tcorr
		o.spec.Forcing.Seed = seed
	}
}

// WithScalars attaches n passive scalars with the given Schmidt
// numbers (κ_i = ν/Sc_i; missing entries default to Sc=1, extras are
// ignored). Unless a system is named explicitly, this selects
// "rotating-scalar".
func WithScalars(n int, sc ...float64) Option {
	return func(o *solverOptions) {
		for i := 0; i < n; i++ {
			s := 1.0
			if i < len(sc) {
				s = sc[i]
			}
			o.spec.Scalars = append(o.spec.Scalars, ScalarSpec{Schmidt: s})
		}
	}
}

// WithScalarGradient imposes a uniform mean gradient G·ŷ on every
// scalar declared so far (the stationary-mixing production device).
func WithScalarGradient(g float64) Option {
	return func(o *solverOptions) {
		for i := range o.spec.Scalars {
			o.spec.Scalars[i].MeanGrad = g
		}
	}
}

// WithRotation sets the frame rotation rate Ω about ẑ. Unless a
// system is named explicitly, this selects "rotating-scalar".
func WithRotation(omega float64) Option {
	return func(o *solverOptions) { o.spec.Omega = omega }
}

// New allocates a solver for an n³ grid with functional options — the
// only constructor. The equation set is chosen by
// WithSystem/WithSystemInstance, or inferred from the physics options:
// scalars or rotation select "rotating-scalar", forcing selects
// "forced-ns", and the default is plain decaying "ns".
//
// All ranks must construct the solver collectively with identical
// options.
func New(comm *mpi.Comm, n int, opts ...Option) *Solver {
	if n < 4 || n%2 != 0 {
		panic(fmt.Sprintf("spectral: N must be even and ≥4, got %d", n))
	}
	o := &solverOptions{}
	o.cfg.N = n
	for _, opt := range opts {
		opt(o)
	}
	o.spec.Nu = o.cfg.Nu
	sys := o.sys
	if sys == nil {
		name := o.sysName
		if name == "" {
			switch {
			case len(o.spec.Scalars) > 0 || o.spec.Omega != 0:
				name = "rotating-scalar"
			case o.spec.Forcing.KF > 0 || o.spec.Forcing.Eps > 0:
				name = "forced-ns"
			default:
				name = "ns"
			}
		}
		var err error
		sys, err = NewNamedSystem(name, o.spec)
		if err != nil {
			panic(err.Error())
		}
	}
	tr := o.tr
	ownTr := false
	if tr == nil {
		tr = pfft.NewSlabRealStrategy(comm, n, 1, exchange.Auto)
		ownTr = true
	}
	s := newSolver(comm, o.cfg, tr, sys)
	s.ownTr = ownTr
	return s
}
