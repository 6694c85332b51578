package spectral

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// System is a pluggable equation set advanced by the solver's generic
// integrating-factor Runge–Kutta stepper. The paper's GPU pipeline is
// equation-agnostic — all the asynchronism lives in the transform and
// exchange layers — so one engine serves many physics modules, the
// shape of production hybrid pseudo-spectral frameworks (Rosenberg et
// al.: HD, MHD, Boussinesq, rotation from one code base).
//
// A System owns the physics, the Solver owns the numerics: field
// storage, RK stage buffers, wavenumber tables, the dealias band and
// the distributed transforms. The contract:
//
//   - Fields() reports the number of spectral fields advanced
//     together. The first three are always the solenoidal velocity
//     components (every diagnostic, initial condition and checkpoint
//     helper assumes this layout); additional fields are
//     system-defined (passive scalars, magnetic potential, …).
//   - Nonlinear evaluates the explicit right-hand side of every field
//     of state into rhs. It is called once per RK stage with stage
//     values, so it must not assume state aliases the solver's
//     current fields. state is in the slab layout ([mz][ny][nxh]);
//     rhs holds the dealias band only — band row ri of the solver's
//     row list at ri·kb, its kb in-band modes contiguous — because a
//     right-hand side is +0 outside the band. Every element of every
//     rhs[c] must be written; the buffer is not cleared first. Under
//     DealiasNone the band is every mode and the band layout is the
//     slab layout itself. It runs on the step hot path: no allocations
//     at steady state (all scratch is bound in Setup).
//   - Diffusivity(c) is field c's linear diffusion coefficient ν_c;
//     the stepper integrates the ν_c·k² term exactly through the
//     integrating factor exp(−ν_c·k²·dt).
//   - PostStep runs after each completed step of size dt (forcing
//     controllers, stationarity constraints). Also hot: no
//     allocations.
//   - Diagnostics returns named scalar diagnostics for reporting
//     (collective; may allocate — it is not on the step path).
//
// Setup is called exactly once, when the solver is constructed; a
// System instance therefore serves exactly one Solver.
type System interface {
	Name() string
	Fields() int
	Setup(s *Solver)
	Diffusivity(c int) float64
	Nonlinear(s *Solver, state, rhs [][]complex128)
	PostStep(s *Solver, dt float64)
	Diagnostics(s *Solver) []Diagnostic
}

// Diagnostic is one named scalar a System reports alongside the
// standard velocity statistics.
type Diagnostic struct {
	Name  string
	Value float64
}

// ScalarSpec configures one passive scalar of a system: its Schmidt
// number Sc = ν/κ (0 selects the default Sc = 1, +Inf a non-diffusive
// scalar; negative or NaN is rejected by SystemSpec.Validate) and the
// imposed uniform mean gradient G·ŷ (the production device for
// statistically stationary mixing; zero means pure decay).
type ScalarSpec struct {
	Schmidt  float64
	MeanGrad float64
}

// ForcingSpec configures the stochastic large-scale forcing of the
// forced systems: the highest forced shell KF, the target energy
// injection rate Eps, the phase decorrelation time TCorr (zero keeps
// the forcing deterministic) and the RNG seed.
type ForcingSpec struct {
	KF    int
	Eps   float64
	TCorr float64
	Seed  int64
}

// SystemSpec carries the physics parameters a SystemFactory builds a
// System from. Factories read the fields they understand and ignore
// the rest, so one spec serves every registered system.
type SystemSpec struct {
	Nu      float64      // kinematic viscosity
	Forcing ForcingSpec  // large-scale forcing (forced systems)
	Scalars []ScalarSpec // passive scalars (scalar-carrying systems)
	Omega   float64      // rotation rate about ẑ (rotating systems)
}

// Validate rejects parameters no system can run as asked, naming the
// offender: NewNamedSystem (and so New) applies it before any factory
// sees the spec, and the drivers apply it to flag and config values so
// the error surfaces before ranks are launched.
func (spec SystemSpec) Validate() error {
	for i, sp := range spec.Scalars {
		if sp.Schmidt < 0 || math.IsNaN(sp.Schmidt) {
			return fmt.Errorf("spectral: scalar %d: Schmidt number %g must be ≥ 0 (0 = default Sc 1, +Inf = non-diffusive)", i, sp.Schmidt)
		}
	}
	return nil
}

// SystemFactory builds a fresh System instance from a spec. Each call
// must return a new instance: Setup binds solver-sized scratch to it.
type SystemFactory func(spec SystemSpec) System

var (
	systemsMu  sync.Mutex
	systemsReg = map[string]SystemFactory{}
)

// RegisterSystem adds an equation set to the registry under name.
// Third-party packages register their systems in init(); registering
// a duplicate name panics, matching database/sql driver conventions.
func RegisterSystem(name string, f SystemFactory) {
	if name == "" || f == nil {
		panic("spectral: RegisterSystem needs a name and a factory")
	}
	systemsMu.Lock()
	defer systemsMu.Unlock()
	if _, dup := systemsReg[name]; dup {
		panic(fmt.Sprintf("spectral: system %q registered twice", name))
	}
	systemsReg[name] = f
}

// Systems returns the registered system names, sorted.
func Systems() []string {
	systemsMu.Lock()
	defer systemsMu.Unlock()
	names := make([]string, 0, len(systemsReg))
	for n := range systemsReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SystemCode returns a stable small-integer code for a registered
// system name — its index in the sorted Systems() list — for use as a
// metrics gauge value (the solver.system gauge labels step spans with
// the equation set the same way exchange.strategy labels the chosen
// transpose path). Unknown names return −1.
func SystemCode(name string) int {
	for i, n := range Systems() {
		if n == name {
			return i
		}
	}
	return -1
}

// NewNamedSystem builds a registered system from a spec. The error of
// an unknown name lists what is registered, so a CLI can surface the
// valid vocabulary directly.
func NewNamedSystem(name string, spec SystemSpec) (System, error) {
	systemsMu.Lock()
	f := systemsReg[name]
	systemsMu.Unlock()
	if f == nil {
		return nil, fmt.Errorf("spectral: unknown system %q (registered: %v)", name, Systems())
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return f(spec), nil
}
