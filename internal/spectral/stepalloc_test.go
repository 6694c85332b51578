package spectral

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/pool"
)

// stepAllocs measures rank 0's steady-state heap allocations per Step
// for plain NS under the given scheme; peer ranks execute the same
// collective sequence runs+1 times to match AllocsPerRun's call count.
func stepAllocs(t *testing.T, sch Scheme, p, runs int) float64 {
	t.Helper()
	var avg float64
	mpi.Run(p, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0.01), WithScheme(sch), WithDealias(Dealias23))
		defer s.Close()
		s.SetTaylorGreen()
		if a := measureStepAllocs(c, s, runs); c.Rank() == 0 {
			avg = a
		}
	})
	return avg
}

// stepAllocsOpts is the options-constructor variant covering every
// registered system.
func stepAllocsOpts(t *testing.T, n, p, runs int, opts ...Option) float64 {
	t.Helper()
	var avg float64
	mpi.Run(p, func(c *mpi.Comm) {
		s := New(c, n, opts...)
		defer s.Close()
		s.SetRandomIsotropic(2.5, 0.3, 17)
		for f := 3; f < s.Fields(); f++ {
			s.SetFieldBlob(f, 2.5, 0.5, int64(40+f))
		}
		if a := measureStepAllocs(c, s, runs); c.Rank() == 0 {
			avg = a
		}
	})
	return avg
}

func measureStepAllocs(c *mpi.Comm, s *Solver, runs int) float64 {
	const dt = 1e-3
	for i := 0; i < 3; i++ {
		s.Step(dt) // warm up metric handles, twiddles, freelists
	}
	if c.Rank() != 0 {
		for i := 0; i < runs+1; i++ {
			s.Step(dt)
		}
		return 0
	}
	return testing.AllocsPerRun(runs, func() { s.Step(dt) })
}

// The DNS step loop must not allocate at steady state: every stage
// buffer, transform scratch, pack buffer and metric sample ring is
// hoisted to construction. This pins the hot path against regressions
// (a single make() in a step stage shows up here immediately).
func TestStepSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step DNS loop in -short mode")
	}
	for _, tc := range []struct {
		name string
		sch  Scheme
	}{{"rk2", RK2}, {"rk4", RK4}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if avg := stepAllocs(t, tc.sch, 2, 10); avg != 0 {
				t.Fatalf("steady-state %s step allocates %.2f per call", tc.name, avg)
			}
		})
	}
}

// TestStepSystemsZeroAllocs extends the zero-allocation invariant to
// every shipped equation set under both schemes: System interface
// dispatch, the forcing controller's persistent reduction, scalar
// advection scratch and the Coriolis term must all stay off the heap
// at steady state.
func TestStepSystemsZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step DNS loop in -short mode")
	}
	schemes := []struct {
		name string
		sch  Scheme
	}{{"rk2", RK2}, {"rk4", RK4}}
	systems := []struct {
		name string
		opts []Option
	}{
		{"ns", []Option{WithSystem("ns")}},
		{"forced-ns", []Option{WithForcing(2, 0.05), WithForcingNoise(0.5, 3)}},
		{"rotating-scalar", []Option{WithRotation(2.0), WithScalars(2, 1.0, 0.7), WithScalarGradient(1.0)}},
	}
	for _, sys := range systems {
		for _, sch := range schemes {
			sys, sch := sys, sch
			t.Run(sys.name+"/"+sch.name, func(t *testing.T) {
				opts := append([]Option{WithNu(0.01), WithScheme(sch.sch), WithDealias(Dealias23)}, sys.opts...)
				if avg := stepAllocsOpts(t, 16, 2, 10, opts...); avg != 0 {
					t.Fatalf("steady-state %s/%s step allocates %.2f per call", sys.name, sch.name, avg)
				}
			})
		}
	}
}

// TestStepAdaptiveDtZeroAllocs is the adaptive-CFL case: a new dt from
// SuggestDt every step refills the integrating-factor tables in place.
// SuggestDt reduces through the solver's persistent plan, so neither it
// alone nor SuggestDt plus Step allocates.
func TestStepAdaptiveDtZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step DNS loop in -short mode")
	}
	for _, tc := range []struct {
		name string
		sch  Scheme
	}{{"rk2", RK2}, {"rk4", RK4}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			const runs = 10
			mpi.Run(2, func(c *mpi.Comm) {
				s := New(c, 16, WithNu(0.01), WithScheme(tc.sch), WithDealias(Dealias23))
				defer s.Close()
				s.SetRandomIsotropic(2.5, 0.3, 17)
				suggest := func() { s.SuggestDt(0.4) }
				adaptive := func() { s.Step(s.SuggestDt(0.4)) }
				for i := 0; i < 3; i++ {
					adaptive()
				}
				if c.Rank() != 0 {
					for i := 0; i < runs+1; i++ {
						suggest()
					}
					for i := 0; i < runs+1; i++ {
						adaptive()
					}
					return
				}
				filledFor := s.difGroups[0].tabDt[0]
				if got := testing.AllocsPerRun(runs, suggest); got != 0 {
					t.Errorf("SuggestDt allocates %.2f per call", got)
				}
				if got := testing.AllocsPerRun(runs, adaptive); got != 0 {
					t.Errorf("adaptive %s step allocates %.2f per call", tc.name, got)
				}
				if s.difGroups[0].tabDt[0] == filledFor {
					t.Error("dt never changed: the tables were not refilled")
				}
			})
		})
	}
}

// poolCheckouts is the number of buffers checked out of the process's
// arena: every Get minus every Put.
func poolCheckouts() int64 {
	reg := metrics.NewRegistry()
	pool.PublishMetrics(reg)
	return reg.Counter("pool.hit").Value() + reg.Counter("pool.miss").Value() - reg.Counter("pool.put").Value()
}

// A steady-state method hands back every pool buffer it checks out:
// the arena's checkout count is the same after a repeated call to Step
// or to any diagnostic as before it, on a plain and on a forced solver
// carrying a scalar. Buffers belong to plans and engines, which check
// them out once at construction; one kept by a method per call grows
// the working set every step.
func TestSteadyStateMethodsReturnPoolCheckouts(t *testing.T) {
	const dt = 1e-3
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"ns", []Option{WithNu(0.01), WithScheme(RK2), WithDealias(Dealias23)}},
		{"forced-scalar", []Option{WithNu(0.01), WithScheme(RK4), WithDealias(Dealias23),
			WithForcing(2, 0.1), WithForcingNoise(0.5, 3), WithScalars(1, 0.7)}},
	} {
		mpi.Run(2, func(c *mpi.Comm) {
			s := New(c, 16, tc.opts...)
			defer s.Close()
			s.SetRandomIsotropic(2.5, 0.3, 17)
			parts := s.NewParticles(8, 5)
			last := s.Fields() - 1
			for _, m := range []struct {
				name string
				call func()
			}{
				{"Step", func() { s.Step(dt) }},
				{"StageSweep", func() { s.StageSweep(dt) }},
				{"StepParticles", func() { s.StepParticles(parts, dt) }},
				{"Energy", func() { s.Energy() }},
				{"ComponentEnergy", func() { s.ComponentEnergy(0) }},
				{"FieldVariance", func() { s.FieldVariance(last) }},
				{"FieldDissipation", func() { s.FieldDissipation(last) }},
				{"Dissipation", func() { s.Dissipation() }},
				{"Enstrophy", func() { s.Enstrophy() }},
				{"Spectrum", func() { s.Spectrum() }},
				{"Statistics", func() { s.Statistics() }},
				{"CFL", func() { s.CFL(dt) }},
				{"SuggestDt", func() { s.SuggestDt(0.5) }},
				{"DivergenceMax", func() { s.DivergenceMax() }},
				{"LongitudinalGradientStats", func() { s.LongitudinalGradientStats(0) }},
				{"LongitudinalCorrelation", func() { s.LongitudinalCorrelation() }},
				{"IntegralScale", func() { s.IntegralScale() }},
				{"StructureFunction2", func() { s.StructureFunction2() }},
				{"SliceZ", func() { s.SliceZ(0, 0) }},
				{"SystemDiagnostics", func() { s.SystemDiagnostics() }},
			} {
				m.call() // the first call may build what later calls reuse
				c.Barrier()
				before := poolCheckouts()
				c.Barrier()
				m.call()
				c.Barrier()
				if got := poolCheckouts(); got != before && c.Rank() == 0 {
					t.Errorf("%s: %s keeps %d pool buffers checked out per call", tc.name, m.name, got-before)
				}
				c.Barrier()
			}
		})
	}
}
