package spectral

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/exchange"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/pfft"
)

// inBand reports whether storage index idx of a local Fourier field is
// inside the solver's band, as its row list says: the x-row is in the
// list and the mode is among the row's first kb.
func inBand(s *Solver, idx int) bool {
	off := idx - idx%s.nxh
	i := sort.Search(len(s.rows), func(i int) bool { return s.rows[i].off >= off })
	return i < len(s.rows) && s.rows[i].off == off && idx%s.nxh < s.kb
}

// The solver's band, the band it hands its engine and grid.DealiasKmax
// are one definition: the row list (x-rows whose kz and ky are in, and
// the x prefix kb of each) holds exactly the modes with every
// |k_i| ≤ DealiasKmax, which is also the float compare k > N/3 the
// dealias mask used to be built from. N = 48 keeps k = 16 = N/3 exactly (the pinned
// scalar_rk4_n48 golden depends on it); without dealiasing the band
// holds everything.
func TestDealiasMaskIsTheBand(t *testing.T) {
	for _, n := range []int{12, 16, 48, 64} {
		kmax := grid.DealiasKmax(n)
		if kmax != n/3 {
			t.Fatalf("DealiasKmax(%d) = %d", n, kmax)
		}
		for _, da := range []Dealias{DealiasNone, Dealias23, Dealias23Shift} {
			mpi.Run(2, func(c *mpi.Comm) {
				s := New(c, n, WithDealias(da))
				defer s.Close()
				idx := 0
				for _, kz := range s.kzs {
					for _, ky := range s.kys {
						for _, kx := range s.kxs {
							in := math.Abs(kx) <= float64(kmax) && math.Abs(ky) <= float64(kmax) && math.Abs(kz) <= float64(kmax)
							if old := !(kx > float64(n)/3 || math.Abs(ky) > float64(n)/3 || math.Abs(kz) > float64(n)/3); old != in {
								t.Errorf("N=%d k=(%g,%g,%g): |k_i| ≤ %d is %v, the float compare %v", n, kx, ky, kz, kmax, in, old)
							}
							if want := in || da == DealiasNone; inBand(s, idx) != want {
								t.Errorf("N=%d dealias %d k=(%g,%g,%g): in the band %v, want %v", n, da, kx, ky, kz, inBand(s, idx), want)
							}
							idx++
						}
					}
				}
			})
		}
	}
}

// The solver is slab-only by type: the one-column engine is a
// Transform and the pencil grid, which has no slab geometry, is not.
var _ Transform = (*pfft.SlabReal)(nil)

// bandEngines are the slab engine as the slab (np 1) and as the
// batched pipeline, built with pinned strategies so construction runs
// no trials.
var bandEngines = []struct {
	name  string
	build func(c *mpi.Comm, n int) Transform
}{
	{"pfft", func(c *mpi.Comm, n int) Transform {
		return pfft.NewSlabRealStrategy(c, n, 2, exchange.ChunkedFused)
	}},
	{"async", func(c *mpi.Comm, n int) Transform {
		return pfft.NewAsyncSlabReal(c, n, pfft.Options{NP: 3, Workers: 2, Exchange: exchange.ChunkedFused})
	}},
}

// fullTransform is an engine that ignores the band: the solver on it
// runs every line of every transform, as before the band existed.
type fullTransform struct{ Transform }

func (fullTransform) Truncate(int) {}

// Telling the engine the band changes no bit of a step: the same state
// stepped on an engine and on that engine's twin with Truncate disabled
// agrees in every field after each of three steps of changing dt, signs
// of zero included. The negated Taylor–Green start holds most in-band
// modes, and a whole component, at −0.
func TestTruncatedStepMatchesFullBitwise(t *testing.T) {
	const n = 16
	dts := []float64{4e-3, 2.5e-3, 3.1e-3}
	for _, sys := range refSystems {
		if sys.name == "mixed-kappa" {
			continue
		}
		for _, sch := range []Scheme{RK2, RK4} {
			for _, da := range []Dealias{Dealias23, Dealias23Shift} {
				for _, p := range []int{1, 2, 4} {
					for _, eng := range bandEngines {
						for _, ic := range []string{"random", "neg-taylor-green"} {
							name := fmt.Sprintf("%s/scheme%d/dealias%d/p%d/%s/%s", sys.name, sch, da, p, eng.name, ic)
							opts := func(tr Transform) []Option {
								return append([]Option{WithNu(0.01), WithScheme(sch), WithDealias(da), WithTransform(tr)}, sys.opts(0.01)...)
							}
							mpi.Run(p, func(c *mpi.Comm) {
								trBand, trFull := eng.build(c, n), eng.build(c, n)
								defer trBand.(interface{ Close() }).Close()
								defer trFull.(interface{ Close() }).Close()
								banded, full := New(c, n, opts(trBand)...), New(c, n, opts(fullTransform{trFull})...)
								defer banded.Close()
								defer full.Close()
								for _, s := range []*Solver{banded, full} {
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
								for step, dt := range dts {
									banded.Step(dt)
									full.Step(dt)
									// No early return: a rank that stopped stepping
									// would hang its peers' collectives.
									sameBits(t, name, c.Rank(), step, "field", banded.state, full.state)
								}
							})
						}
					}
				}
			}
		}
	}
}

// poisonedSystem wraps a system so that every nonlinear evaluation
// starts from NaN in every entry of its right-hand side, which holds
// the band only, and must overwrite each one; bad records the first
// entry that it did not.
type poisonedSystem struct {
	System
	bad string
}

func (y *poisonedSystem) Nonlinear(s *Solver, state, rhs [][]complex128) {
	poison(rhs)
	y.System.Nonlinear(s, state, rhs)
	for c, f := range rhs {
		for i, v := range f {
			if math.IsNaN(real(v)) && math.IsNaN(imag(v)) && y.bad == "" {
				y.bad = fmt.Sprintf("field %d band entry %d still holds the poison after Nonlinear", c, i)
			}
		}
	}
}

// Close forwards to the wrapped system's (the forced systems free a
// collective plan there).
func (y *poisonedSystem) Close() {
	if c, ok := y.System.(interface{ Close() }); ok {
		c.Close()
	}
}

// poison stores NaN over every entry of fields.
func poison(fields [][]complex128) {
	for _, f := range fields {
		for i := range f {
			f[i] = complex(math.NaN(), math.NaN())
		}
	}
}

// Every band buffer is written before it is read: with NaN stored over
// every entry of every band field set the stepper holds (nl, save and
// acc under RK2; nl, un and rk under RK4) before each step, and over
// the buffer each nonlinear evaluation writes before it runs, every
// registered system steps bit for bit as it does on clean buffers, and
// every evaluation overwrites its whole band — the band buffers store
// nothing outside the band, so there is no out-of-band entry left to
// read. The spec holds every physics parameter, so each system runs all
// of its terms (forcing, rotation, two scalars with and without a mean
// gradient).
func TestPoisonedRHSStepsBitwise(t *testing.T) {
	const n = 16
	dts := []float64{4e-3, 2.5e-3, 3.1e-3}
	spec := SystemSpec{
		Nu:      0.01,
		Forcing: ForcingSpec{KF: 2, Eps: 0.05, TCorr: 0.5, Seed: 3},
		Scalars: []ScalarSpec{{Schmidt: 1, MeanGrad: 1}, {Schmidt: 0.7}},
		Omega:   2,
	}
	for _, name := range Systems() {
		for _, sch := range []Scheme{RK2, RK4} {
			for _, da := range []Dealias{Dealias23, Dealias23Shift} {
				for _, p := range []int{1, 2} {
					tag := fmt.Sprintf("%s/scheme%d/dealias%d/p%d", name, sch, da, p)
					mpi.Run(p, func(c *mpi.Comm) {
						sys := func() System {
							y, err := NewNamedSystem(name, spec)
							if err != nil {
								panic(err)
							}
							return y
						}
						dirtySys := &poisonedSystem{System: sys()}
						opts := []Option{WithNu(spec.Nu), WithScheme(sch), WithDealias(da)}
						clean := New(c, n, append(opts, WithSystemInstance(sys()))...)
						dirty := New(c, n, append(opts, WithSystemInstance(dirtySys))...)
						defer clean.Close()
						defer dirty.Close()
						for _, s := range []*Solver{clean, dirty} {
							s.SetRandomIsotropic(2.5, 0.3, 17)
							for f := 3; f < s.Fields(); f++ {
								s.SetFieldBlob(f, 2.5, 0.5, int64(40+f))
							}
						}
						for step, dt := range dts {
							for _, buf := range [][][]complex128{dirty.nl, dirty.save, dirty.acc, dirty.un, dirty.rk} {
								poison(buf)
							}
							clean.Step(dt)
							dirty.Step(dt)
							if dirtySys.bad != "" {
								t.Errorf("%s: rank %d step %d: %s", tag, c.Rank(), step, dirtySys.bad)
								dirtySys.bad = ""
							}
							sameBits(t, tag, c.Rank(), step, "field", dirty.state, clean.state)
						}
					})
				}
			}
		}
	}
}

// State outside the band is inert: one extra mode beyond N/3 — in x, in
// y or in z — leaves every other mode of a three-step run bit for bit
// what it is without it, and itself only decays, by the integrating
// factor exp(−ν·k²·dt) per step. (On a full transform it would enter
// every product and alias back into the band.)
func TestOutOfBandStateIsInert(t *testing.T) {
	const (
		n  = 16
		nu = 0.01
	)
	dts := []float64{4e-3, 2.5e-3, 3.1e-3}
	extra := complex(0.3*float64(n*n*n), -0.2*float64(n*n*n)) // O(1) in math units
	for _, k := range [][3]int{{7, 1, 2}, {2, 7, 1}, {1, 2, -6}, {6, -8, 3}} {
		for _, sch := range []Scheme{RK2, RK4} {
			for _, eng := range bandEngines {
				name := fmt.Sprintf("k=%v/scheme%d/%s", k, sch, eng.name)
				mpi.Run(2, func(c *mpi.Comm) {
					trA, trB := eng.build(c, n), eng.build(c, n)
					defer trA.(interface{ Close() }).Close()
					defer trB.(interface{ Close() }).Close()
					opts := func(tr Transform) []Option {
						return []Option{WithNu(nu), WithScheme(sch), WithDealias(Dealias23), WithTransform(tr)}
					}
					clean, dirty := New(c, n, opts(trA)...), New(c, n, opts(trB)...)
					defer clean.Close()
					defer dirty.Close()
					clean.SetRandomIsotropic(2.5, 0.3, 17)
					dirty.SetRandomIsotropic(2.5, 0.3, 17)
					// The extra mode, where this rank owns it (kx > 0: no
					// conjugate partner in the stored half-spectrum).
					at := -1
					if gz := (k[2] + n) % n; dirty.slab.ZOwner(gz) == c.Rank() {
						at = ((gz-dirty.slab.ZLo())*n+(k[1]+n)%n)*dirty.nxh + k[0]
						if inBand(dirty, at) || dirty.Uh[1][at] != 0 {
							t.Errorf("%s: mode %d is not an empty out-of-band mode", name, at)
						}
						dirty.Uh[1][at] = extra
					}
					want := extra
					for step, dt := range dts {
						clean.Step(dt)
						dirty.Step(dt)
						want *= complex(math.Exp(-nu*float64(k[0]*k[0]+k[1]*k[1]+k[2]*k[2])*dt), 0)
						if at >= 0 {
							if got := dirty.Uh[1][at]; got != want {
								t.Errorf("%s: rank %d step %d: the extra mode is %v, its viscous decay %v", name, c.Rank(), step, got, want)
							}
							dirty.Uh[1][at] = 0 // compare the rest, put it back after
						}
						sameBits(t, name, c.Rank(), step, "field", dirty.state, clean.state)
						if at >= 0 {
							dirty.Uh[1][at] = want
						}
					}
				})
			}
		}
	}
}
