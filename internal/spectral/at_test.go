package spectral

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/exchange"
	"repro/internal/mpi"
	"repro/internal/pfft"
)

// slabAT is the slab engine (np 1, one exchange per slab, one device)
// on the asynchrony-tolerant exchange: the one place a run asks for
// asynchrony tolerance.
func slabAT(c *mpi.Comm, n, maxStale int, deadline time.Duration) *pfft.SlabReal {
	return pfft.NewAsyncSlabReal(c, n, pfft.Options{
		NP: 1, Granularity: pfft.PerSlab, NGPU: 1,
		Exchange: exchange.AT, ATMaxStale: maxStale, ATDeadline: deadline,
	})
}

// With no stragglers an asynchrony-tolerant solver must be bitwise
// identical to the synchronous one: every bounded exchange completes
// inside its generous deadline, no stale slab is ever gathered, the
// correction weight stays zero, and the gather kernels are the exact
// fused kernels of the synchronous strategies.
func TestSolverATZeroDelayBitwiseIdentity(t *testing.T) {
	const n = 16
	const steps = 4
	for _, p := range []int{1, 2, 4} {
		for _, sch := range []Scheme{RK2, RK4} {
			p, sch := p, sch
			t.Run(fmt.Sprintf("slab/p%d/scheme%d", p, sch), func(t *testing.T) {
				mpi.Run(p, func(c *mpi.Comm) {
					opts := []Option{WithNu(0.02), WithScheme(sch), WithDealias(Dealias23)}
					ref := New(c, n, opts...)
					defer ref.Close()
					ref.SetRandomIsotropic(3, 0.5, 9)
					at := New(c, n, append(opts[:len(opts):len(opts)],
						WithTransform(slabAT(c, n, 1, 2*time.Second)))...)
					at.OwnTransform()
					defer at.Close()
					at.SetRandomIsotropic(3, 0.5, 9)
					for i := 0; i < steps; i++ {
						ref.Step(0.004)
						at.Step(0.004)
					}
					for cmp := 0; cmp < 3; cmp++ {
						for i := range ref.Uh[cmp] {
							if ref.Uh[cmp][i] != at.Uh[cmp][i] {
								t.Errorf("rank %d component %d element %d: AT %v vs sync %v",
									c.Rank(), cmp, i, at.Uh[cmp][i], ref.Uh[cmp][i])
								return
							}
						}
					}
					if at.ATCorrections() != 0 {
						t.Errorf("rank %d: zero-delay run applied %d corrections", c.Rank(), at.ATCorrections())
					}
				})
			})
		}
	}
}

// The same identity must hold on the batched asynchronous engine:
// exchange.AT reuses the Fused gather kernels, so with no staleness
// the two engines walk the same arithmetic.
func TestSolverATZeroDelayBitwiseIdentityCoreEngine(t *testing.T) {
	const n = 16
	for _, p := range []int{1, 2} {
		p := p
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			mpi.Run(p, func(c *mpi.Comm) {
				base := []Option{WithNu(0.02), WithScheme(RK2), WithDealias(Dealias23)}
				ref := New(c, n, append(base[:len(base):len(base)], WithTransform(
					pfft.NewAsyncSlabReal(c, n, pfft.Options{
						NP: 2, Granularity: pfft.PerSlab, Exchange: exchange.Fused,
					})))...)
				ref.OwnTransform()
				defer ref.Close()
				ref.SetRandomIsotropic(3, 0.5, 13)
				at := New(c, n, append(base[:len(base):len(base)],
					WithTransform(pfft.NewAsyncSlabReal(c, n, pfft.Options{
						NP: 2, Granularity: pfft.PerSlab, Exchange: exchange.AT,
						ATMaxStale: 1, ATDeadline: 2 * time.Second,
					})))...)
				at.OwnTransform()
				defer at.Close()
				at.SetRandomIsotropic(3, 0.5, 13)
				for i := 0; i < 3; i++ {
					ref.Step(0.004)
					at.Step(0.004)
				}
				for cmp := 0; cmp < 3; cmp++ {
					for i := range ref.Uh[cmp] {
						if ref.Uh[cmp][i] != at.Uh[cmp][i] {
							t.Errorf("rank %d component %d element %d: AT %v vs sync %v",
								c.Rank(), cmp, i, at.Uh[cmp][i], ref.Uh[cmp][i])
							return
						}
					}
				}
			})
		})
	}
}

// Under a genuine straggler the AT solver keeps stepping on stale
// slabs instead of blocking, and the staleness-weighted correction
// keeps the solution close to the synchronous golden run: accuracy
// degrades gracefully and boundedly, never catastrophically.
func TestSolverATGracefulDegradationUnderStraggler(t *testing.T) {
	const (
		n     = 16
		p     = 4
		steps = 8
		dt    = 0.004
	)
	opts := []Option{WithNu(0.02), WithScheme(RK2), WithDealias(Dealias23)}

	// Golden synchronous run.
	var refEnergy float64
	refU := make([]complex128, 0)
	mpi.Run(p, func(c *mpi.Comm) {
		s := New(c, n, opts...)
		defer s.Close()
		s.SetRandomIsotropic(3, 0.5, 21)
		for i := 0; i < steps; i++ {
			s.Step(dt)
		}
		e := s.Energy() // collective: every rank participates
		if c.Rank() == 0 {
			refEnergy = e
			refU = append(refU[:0], s.Uh[0]...)
		}
	})

	// AT run with rank p−1 straggling before every step and a zero
	// soft deadline, so its peers proceed the moment the hard bound
	// allows — maximum staleness exposure. Stale slabs are only
	// accepted in whole-step quanta (site labels), and the busiest
	// plan runs 12 exchanges per RK2 step, so the bound must cover a
	// full step's worth of epochs to admit any staleness at all.
	var atEnergy float64
	var corrections int
	atU := make([]complex128, 0)
	mpi.Run(p, func(c *mpi.Comm) {
		s := New(c, n, append(opts[:len(opts):len(opts)],
			WithTransform(slabAT(c, n, 12, 0)))...)
		s.OwnTransform()
		defer s.Close()
		s.SetRandomIsotropic(3, 0.5, 21)
		for i := 0; i < steps; i++ {
			if c.Rank() == p-1 {
				time.Sleep(3 * time.Millisecond)
			}
			s.Step(dt)
		}
		e := s.Energy() // collective: every rank participates
		if c.Rank() == 0 {
			atEnergy = e
			corrections = s.ATCorrections()
			atU = append(atU[:0], s.Uh[0]...)
		}
	})

	if corrections == 0 {
		t.Errorf("straggler run applied no staleness corrections on rank 0 — AT path not exercised")
	}
	if math.IsNaN(atEnergy) || math.IsInf(atEnergy, 0) {
		t.Fatalf("AT run blew up: energy %v", atEnergy)
	}
	for i, v := range atU {
		re, im := real(v), imag(v)
		if math.IsNaN(re) || math.IsNaN(im) || math.IsInf(re, 0) || math.IsInf(im, 0) {
			t.Fatalf("AT run blew up at element %d: %v", i, v)
		}
	}
	relErr := math.Abs(atEnergy-refEnergy) / refEnergy
	if relErr > 0.05 {
		t.Errorf("energy degraded beyond bound: AT %g vs sync %g (rel err %g)", atEnergy, refEnergy, relErr)
	}
	// Field-level: the solutions may differ (that is the trade), but
	// only boundedly — the rms deviation stays a small fraction of
	// the rms signal.
	var num, den float64
	for i := range refU {
		d := refU[i] - atU[i]
		num += real(d)*real(d) + imag(d)*imag(d)
		den += real(refU[i])*real(refU[i]) + imag(refU[i])*imag(refU[i])
	}
	if den > 0 && math.Sqrt(num/den) > 0.25 {
		t.Errorf("field deviation %g exceeds graceful-degradation bound", math.Sqrt(num/den))
	}
}

// siteCounter counts the site labels a solver stamps on its engine.
type siteCounter struct {
	*pfft.SlabReal
	sites int
}

func (c *siteCounter) SetATSite(site uint32) {
	c.sites++
	c.SlabReal.SetATSite(site)
}

// Asynchrony tolerance is asked for once, on the engine: a solver
// handed an AT engine, with no AT setting of its own, labels every
// transform call with its site and corrects for the staleness the
// engine absorbs under a straggler. Unlabelled, a bounded exchange
// falls back to plain epoch lag and may substitute a peer's slab of a
// different field or stage; uncorrected, the stale slabs go straight
// into the nonlinear term. A wrapper that embeds Transform (a tracing
// or timing decorator) hides none of it.
func TestSolverATFromEngineAlone(t *testing.T) {
	const (
		n     = 16
		p     = 4
		steps = 8
		// RK2 on plain NS makes nine transform calls per stage.
		callsPerStep = 18
	)
	for _, tc := range []struct {
		name    string
		opt     pfft.Options
		wrapped bool // hand the solver struct{ Transform }
	}{
		{"slab/np1", pfft.Options{NP: 1, Granularity: pfft.PerSlab, NGPU: 1}, false},
		{"batched/np2", pfft.Options{NP: 2, Granularity: pfft.PerPencil, NGPU: 1}, false},
		{"slab/np1/wrapped", pfft.Options{NP: 1, Granularity: pfft.PerSlab, NGPU: 1}, true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var sites, corrections int
			mpi.Run(p, func(c *mpi.Comm) {
				opt := tc.opt
				opt.Exchange, opt.ATMaxStale, opt.ATDeadline = exchange.AT, 12, 0
				tr := &siteCounter{SlabReal: pfft.NewAsyncSlabReal(c, n, opt)}
				defer tr.Close()
				var handed Transform = tr
				if tc.wrapped {
					handed = struct{ Transform }{tr}
				}
				s := New(c, n, WithNu(0.02), WithScheme(RK2), WithDealias(Dealias23), WithTransform(handed))
				defer s.Close()
				s.SetRandomIsotropic(3, 0.5, 21)
				for i := 0; i < steps; i++ {
					if c.Rank() == p-1 {
						time.Sleep(3 * time.Millisecond)
					}
					s.Step(0.004)
				}
				if c.Rank() == 0 {
					sites, corrections = tr.sites, s.ATCorrections()
				}
			})
			if sites != steps*callsPerStep {
				t.Errorf("rank 0 stamped %d site labels over %d steps, want %d (one per transform call)", sites, steps, steps*callsPerStep)
			}
			if corrections == 0 {
				t.Errorf("rank 0 applied no staleness corrections under a straggler")
			}
		})
	}
}

// laggedSystem evaluates the wrapped system's nonlinear term with the
// second half of every field replaced by its value from lagEvals
// nonlinear evaluations earlier — the deterministic analogue of half
// a rank's gathered data arriving a whole number of steps stale
// through a bounded exchange (lagEvals = lag·stages keeps the stage
// aligned, exactly as the site-matched exchange guarantees). Until
// enough history accumulates the current state is used (no injected
// error), mirroring an AT run's synchronous first steps.
type laggedSystem struct {
	System
	lagEvals int
	hist     [][][]complex128
	scratch  [][]complex128
}

func (l *laggedSystem) Nonlinear(s *Solver, state, rhs [][]complex128) {
	nf := len(state)
	snap := make([][]complex128, nf)
	for c := range snap {
		snap[c] = append([]complex128(nil), state[c]...)
	}
	l.hist = append(l.hist, snap)
	if l.scratch == nil {
		l.scratch = make([][]complex128, nf)
		for c := range l.scratch {
			l.scratch[c] = make([]complex128, len(state[c]))
		}
	}
	k := len(l.hist) - 1 - l.lagEvals
	if k < 0 {
		k = len(l.hist) - 1
	}
	old := l.hist[k]
	for c := range state {
		copy(l.scratch[c], state[c])
		half := len(state[c]) / 2
		copy(l.scratch[c][half:], old[c][half:])
	}
	l.System.Nonlinear(s, l.scratch, rhs)
}

// scriptedStaleness wraps a synchronous transform and reports a fixed
// staleness window on every drain, putting the correction weight
// under test control while the transform arithmetic stays exact.
type scriptedStaleness struct {
	Transform
	sum, calls int64
}

func (f *scriptedStaleness) TakeStaleness() (int, int64, int64, int64) {
	return int(f.sum), f.sum, f.sum, f.calls
}

// StrategyPair reports the asynchrony-tolerant exchange, which is what
// arms the solver's correction.
func (f *scriptedStaleness) StrategyPair() exchange.Pair { return exchange.Both(exchange.AT) }

// The bounded-staleness model the feature is built on, checked
// quantitatively with a scripted staleness pattern: lagging half of
// every field by k whole steps produces an error that scales first
// order in k, and the Kumari–Donzis correction with the matching
// weight (w = mean data age = k/2 over the half-stale domain) shrinks
// that error rather than a broad no-blow-up ceiling merely tolerating
// it.
func TestSolverATFirstOrderStalenessErrorAndCorrection(t *testing.T) {
	const (
		n     = 16
		p     = 2
		steps = 6
		dt    = 0.004
	)
	cfg := config{N: n, Nu: 0.02, Scheme: RK2, Dealias: Dealias23}

	run := func(lag int, correct bool) []complex128 {
		var out []complex128
		mpi.Run(p, func(c *mpi.Comm) {
			eng := pfft.NewSlabRealStrategy(c, n, 1, exchange.Auto)
			defer eng.Close()
			var tr Transform = eng
			var sys System = newNavierStokes(SystemSpec{Nu: cfg.Nu})
			if lag > 0 {
				sys = &laggedSystem{System: sys, lagEvals: 2 * lag} // RK2: 2 evaluations per step
			}
			if correct {
				// Half of every field is lag steps old, so the honest
				// mean peer-slab age is lag/2: script the window so
				// the drained weight w = sum/(calls·(P−1)) matches.
				tr = &scriptedStaleness{Transform: tr, sum: int64(lag), calls: 2}
			}
			s := newSolver(c, cfg, tr, sys)
			defer s.Close()
			s.SetRandomIsotropic(3, 0.5, 33)
			for i := 0; i < steps; i++ {
				s.Step(dt)
			}
			if c.Rank() == 0 {
				out = make([]complex128, 0, 3*len(s.Uh[0]))
				for cmp := 0; cmp < 3; cmp++ {
					out = append(out, s.Uh[cmp]...)
				}
			}
		})
		return out
	}

	rms := func(a, b []complex128) float64 {
		var num float64
		for i := range a {
			d := a[i] - b[i]
			num += real(d)*real(d) + imag(d)*imag(d)
		}
		return math.Sqrt(num / float64(len(a)))
	}

	ref := run(0, false)
	e1 := rms(run(1, false), ref)
	e2 := rms(run(2, false), ref)
	c1 := rms(run(1, true), ref)
	c2 := rms(run(2, true), ref)
	t.Logf("uncorrected err: lag1=%g lag2=%g (ratio %g); corrected: lag1=%g lag2=%g", e1, e2, e2/e1, c1, c2)

	if e1 == 0 {
		t.Fatalf("one step of injected staleness produced zero error — lag harness inert")
	}
	// First-order scaling: doubling the lag roughly doubles the error
	// (generous envelope for nonlinearity and the lag-k warmup ramp).
	if r := e2 / e1; r < 1.4 || r > 3.5 {
		t.Errorf("staleness error ratio err(2)/err(1) = %g, want ≈2 (first order in the lag)", r)
	}
	if c1 >= e1 {
		t.Errorf("correction did not reduce the lag-1 error: corrected %g vs uncorrected %g", c1, e1)
	}
	if c2 >= e2 {
		t.Errorf("correction did not reduce the lag-2 error: corrected %g vs uncorrected %g", c2, e2)
	}
}
