package spectral

import (
	"fmt"
	"time"

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

	// Asynchrony tolerance: atStale < 0 (the default) keeps every
	// exchange synchronous; atStale ≥ 0 runs the transposes through
	// bounded-staleness exchanges and enables the staleness-weighted
	// nonlinear correction in the stepper.
	atStale    int
	atDeadline time.Duration
}

// DefaultATDeadline is the soft wait used by asynchrony-tolerant
// exchanges when WithAsyncDeadline is not given: a rank whose peers
// are within the staleness bound still grants them this long to
// publish the current epoch before gathering stale slabs. Generous
// against scheduling jitter, small against a genuinely hung peer.
const DefaultATDeadline = 50 * time.Millisecond

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
// (e.g. the batched asynchronous pipeline of internal/core) instead of
// the synchronous slab default. The solver truncates the engine to its
// dealiasing band (Transform.Truncate) and Close restores the full
// transform, so solvers sharing one engine must share one Dealias
// setting.
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

// WithAsyncTolerance enables asynchrony-tolerant stepping with the
// given staleness bound (in exchange epochs, not time steps): the
// distributed transposes run through bounded exchanges
// (mpi.ExchangePlan.DoBounded) that let a rank proceed on peers'
// latest published slabs once they lag by at most maxStale epochs,
// and the stepper applies a staleness-weighted first-order correction
// to the nonlinear term (the Kumari–Donzis asynchrony-tolerant
// scheme). maxStale = 0 still waits for every peer — useful to keep
// the AT machinery on a bitwise-synchronous path; negative bounds
// panic at construction.
//
// Stale data is only ever accepted in whole-step quanta: the solver
// labels every exchange with its within-step call index, and a
// bounded exchange substitutes a peer's old slab only when it carries
// the same label — the same quantity from k whole steps earlier,
// never a different field or stage in the wrong layout. Each plan
// runs several exchanges per step (for plain NS under RK2, six on the
// forward plan and twelve on the inverse), so a bound smaller than a
// plan's per-step exchange count never admits stale data on that
// plan; to tolerate about one step of lag, set maxStale to the
// scheme's per-step exchange count (≈ 6·stages for NS).
//
// With no WithTransform the solver builds its slab transform with
// pfft.NewSlabRealAT. A caller-supplied transform must itself be
// asynchrony-tolerant (pfft.NewSlabRealAT or a core.AsyncSlabReal
// with Exchange: exchange.AT) — construction panics if it cannot
// report staleness.
func WithAsyncTolerance(maxStale int) Option {
	return func(o *solverOptions) {
		if maxStale < 0 {
			panic(fmt.Sprintf("spectral: negative staleness bound %d", maxStale))
		}
		o.atStale = maxStale
	}
}

// WithAsyncDeadline bounds the soft wait of asynchrony-tolerant
// exchanges: once peers are within the staleness bound, a rank still
// waits up to d for them to publish the current epoch before
// gathering stale slabs (d ≤ 0 never waits past the hard bound).
// Without WithAsyncTolerance this option has no effect. The default
// is DefaultATDeadline.
func WithAsyncDeadline(d time.Duration) Option {
	return func(o *solverOptions) { o.atDeadline = d }
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
	o := &solverOptions{atStale: -1, atDeadline: DefaultATDeadline}
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
		if o.atStale >= 0 {
			tr = pfft.NewSlabRealAT(comm, n, 1, o.atStale, o.atDeadline)
		} else {
			tr = pfft.NewSlabReal(comm, n)
		}
		ownTr = true
	}
	s := newSolver(comm, o.cfg, tr, sys, o.atStale >= 0)
	s.ownTr = ownTr
	return s
}
