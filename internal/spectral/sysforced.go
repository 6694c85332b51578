package spectral

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/mpi"
)

// ForcedNS is stochastically forced incompressible Navier–Stokes: the
// decaying dynamics plus a large-scale forcing controller that injects
// kinetic energy at a prescribed rate into the shells k ≤ KF after
// every step, sustaining statistically stationary turbulence — the
// configuration of the paper's production runs (Eswaran–Pope-style
// low-wavenumber forcing).
type ForcedNS struct {
	nu      float64
	forcing *StochasticForcing
}

// DefaultForcingEps is the energy injection rate the drivers use when
// forcing is requested without a rate (cmd/dns -forced, cmd/campaign
// forcingShells).
const DefaultForcingEps = 0.1

func init() {
	RegisterSystem("forced-ns", newForcedNS)
}

func newForcedNS(spec SystemSpec) System {
	return &ForcedNS{
		nu:      spec.Nu,
		forcing: NewStochasticForcing(spec.Forcing),
	}
}

// Name implements System.
func (y *ForcedNS) Name() string { return "forced-ns" }

// Fields implements System.
func (y *ForcedNS) Fields() int { return 3 }

// Setup implements System: registers the forcing's persistent
// reduction (collective).
func (y *ForcedNS) Setup(s *Solver) { y.forcing.setup(s) }

// Diffusivity implements System.
func (y *ForcedNS) Diffusivity(int) float64 { return y.nu }

// Nonlinear implements System (identical to plain NS; the forcing acts
// discretely between steps, not in the RHS).
//
//psdns:hotpath
func (y *ForcedNS) Nonlinear(s *Solver, state, rhs [][]complex128) {
	s.velocityProducts(state, rhs)
	s.projectAndDealias(rhs)
}

// PostStep implements System: one forcing application.
//
//psdns:hotpath
func (y *ForcedNS) PostStep(s *Solver, dt float64) { y.forcing.apply(s, dt) }

// Diagnostics implements System: the stationarity budget terms. At
// statistical stationarity forcing.injection ≈ dissipation.
func (y *ForcedNS) Diagnostics(s *Solver) []Diagnostic {
	return []Diagnostic{
		{Name: "energy", Value: s.Energy()},
		{Name: "dissipation", Value: s.Dissipation()},
		{Name: "forcing.injection", Value: y.forcing.Eps},
		{Name: "forcing.band_energy", Value: y.forcing.BandEnergy(s)},
	}
}

// Forcing exposes the controller (e.g. to retune Eps between runs).
func (y *ForcedNS) Forcing() *StochasticForcing { return y.forcing }

// Close frees the forcing controller's persistent reduction plan
// (collective). Invoked by Solver.Close through the optional-Close
// system contract.
func (y *ForcedNS) Close() { y.forcing.Close() }

// StochasticForcing injects kinetic energy into the large scales
// (shells 1 ≤ k ≤ KF) at exactly the prescribed rate Eps: after each
// step of size dt the band modes are scaled by the uniform factor
//
//	g = √(1 + ε·dt/E_f)
//
// so the band gains ε·dt of energy regardless of its current state —
// the same energy budget as Eswaran–Pope forcing, with deterministic
// amplitude control replacing the Ornstein–Uhlenbeck amplitude walk.
// Uniform scaling preserves incompressibility and conjugate symmetry.
//
// When TCorr > 0 the phases of the forced modes additionally perform a
// seeded random walk with decorrelation time TCorr (each mode rotated
// by θ ~ N(0, 2·dt/TCorr), the same θ on all three components, so the
// rotation does no work and keeps k·û = 0). The walk is keyed by
// (seed, step, global mode index), making trajectories independent of
// the rank count — the same device the random initial condition uses.
// All per-step work is allocation-free: the band-energy reduction runs
// over a persistent mpi.ReducePlan registered at Setup, and the sweeps
// visit a list of the band's modes selected there.
//
// KF takes effect when the solver sets the system up and when
// LoadCheckpoint restores it: those are the two places the band is
// selected, so assigning KF on a running solver does not move it.
type StochasticForcing struct {
	KF    int     // highest forced shell
	Eps   float64 // energy injection rate
	TCorr float64 // phase decorrelation time (0 = frozen phases)
	Seed  int64

	red   *mpi.ReducePlan
	buf   []float64
	modes []forcedMode // the forced band, selected for KF
}

// NewStochasticForcing builds the controller from a spec. KF defaults
// to 2 (the standard production choice) when unset.
func NewStochasticForcing(spec ForcingSpec) *StochasticForcing {
	kf := spec.KF
	if kf == 0 {
		kf = 2
	}
	if kf < 1 {
		panic(fmt.Sprintf("spectral: forcing needs kf ≥ 1, got %d", kf))
	}
	if spec.Eps < 0 {
		panic(fmt.Sprintf("spectral: negative injection rate %g", spec.Eps))
	}
	if spec.TCorr < 0 {
		panic(fmt.Sprintf("spectral: negative phase decorrelation time %g", spec.TCorr))
	}
	return &StochasticForcing{KF: kf, Eps: spec.Eps, TCorr: spec.TCorr, Seed: spec.Seed}
}

// setup registers the persistent band-energy reduction and selects
// the forced modes (collective).
func (f *StochasticForcing) setup(s *Solver) {
	f.red = mpi.NewReducePlan(s.comm, 1)
	f.buf = make([]float64, 1)
	f.selectModes(s)
}

// Close frees the persistent band-energy reduction plan (collective;
// idempotent). A controller that is never Setup has nothing to free.
func (f *StochasticForcing) Close() {
	if f.red != nil {
		f.red.Free()
		f.red = nil
	}
}

// BandEnergy returns the kinetic energy in the forced band
// (collective over the persistent plan).
func (f *StochasticForcing) BandEnergy(s *Solver) float64 {
	f.buf[0] = f.localBandEnergy(s)
	f.red.Sum(f.buf)
	return f.buf[0]
}

// forcedMode is one stored mode of the forced band 1 ≤ shell ≤ KF: its
// storage index and Hermitian weight, and the draw its phase walk takes
// — the global id of its pair's canonical mode and the relation to it
// (+1 the mode itself, −1 the conjugate partner, which rotates the
// opposite way, 0 self-conjugate, which stays real).
type forcedMode struct {
	idx int
	w   float64
	gid uint64
	rel float64
}

// selectModes lists the forced band's local modes in storage order.
// It runs at Setup and when LoadCheckpoint restores KF.
func (f *StochasticForcing) selectModes(s *Solver) {
	f.modes = f.modes[:0]
	for r := s.walkRows(); r.next(); {
		for ix := 0; ix < s.nxh; ix++ {
			k2, w := r.bin(ix)
			if sh := shell(k2); sh < 1 || sh > f.KF {
				continue
			}
			cy, cz, rel := canonical(ix, r.iy, r.gz, s.cfg.N)
			f.modes = append(f.modes, forcedMode{idx: r.off + ix, w: w,
				gid: s.modeGID(ix, cy, cz), rel: float64(rel)})
		}
	}
}

// localBandEnergy sums this rank's contribution to the band energy.
//
//psdns:hotpath
func (f *StochasticForcing) localBandEnergy(s *Solver) float64 {
	inv := s.modeNorm()
	var sum float64
	for _, m := range f.modes {
		var e float64
		for c := 0; c < 3; c++ {
			v := s.Uh[c][m.idx]
			e += real(v)*real(v) + imag(v)*imag(v)
		}
		sum += 0.5 * m.w * e * inv
	}
	return sum
}

// apply performs one forcing update: exact-rate amplitude scaling,
// then the optional phase walk (collective, allocation-free).
//
//psdns:hotpath
func (f *StochasticForcing) apply(s *Solver, dt float64) {
	f.buf[0] = f.localBandEnergy(s)
	f.red.Sum(f.buf)
	ef := f.buf[0]
	if ef <= 0 || f.Eps <= 0 || dt <= 0 {
		return
	}
	g := complex(math.Sqrt(1+f.Eps*dt/ef), 0)
	for _, m := range f.modes {
		s.Uh[0][m.idx] *= g
		s.Uh[1][m.idx] *= g
		s.Uh[2][m.idx] *= g
	}
	if f.TCorr > 0 {
		f.diffusePhases(s, dt)
	}
}

// diffusePhases rotates each forced mode by its step's random phase
// increment, respecting conjugate symmetry on the kx ∈ {0, N/2}
// planes (partners rotate by opposite angles; self-conjugate modes
// stay put so they remain real).
//
//psdns:hotpath
func (f *StochasticForcing) diffusePhases(s *Solver, dt float64) {
	sd := math.Sqrt(2 * dt / f.TCorr)
	for _, m := range f.modes {
		if m.rel == 0 {
			continue
		}
		if theta := m.rel * sd * gaussPhase(f.Seed, s.step, m.gid); theta != 0 {
			rot := cmplx.Rect(1, theta)
			s.Uh[0][m.idx] *= rot
			s.Uh[1][m.idx] *= rot
			s.Uh[2][m.idx] *= rot
		}
	}
}

// splitmix is the SplitMix64 finalizer, the allocation-free hash
// behind the forcing's per-mode random stream.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// gaussPhase draws a standard normal keyed by (seed, step, mode) via
// Box–Muller over two hashed uniforms.
//
//psdns:hotpath
func gaussPhase(seed int64, step int, gid uint64) float64 {
	base := uint64(seed)*0xA24BAED4963EE407 ^ uint64(step+1)*0x9FB21C651E98DF25 ^ gid
	h1 := splitmix(base)
	h2 := splitmix(base ^ 0xD6E8FEB86659FD93)
	u1 := float64(h1>>11) / (1 << 53) // [0, 1)
	u2 := float64(h2>>11) / (1 << 53)
	return math.Sqrt(-2*math.Log(1-u1)) * math.Cos(2*math.Pi*u2)
}
