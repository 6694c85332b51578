package spectral

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mpi"
)

// checkSeededDraws compares the first n values of seededDraws against
// math/rand's stream for the same seed, bit for bit.
func checkSeededDraws(t *testing.T, seed int64, n int) {
	t.Helper()
	got := make([]float64, n)
	seededDraws(seed, got)
	ref := rand.New(rand.NewSource(seed))
	for d, g := range got {
		if want := ref.Float64(); math.Float64bits(g) != math.Float64bits(want) {
			t.Fatalf("seed %d, %d draws: draw %d = %x, math/rand %x", seed, n, d, math.Float64bits(g), math.Float64bits(want))
		}
	}
}

// The jump-ahead draws are math/rand's draws: on 10⁵ random seeds
// across the whole int64 range, on the seeds math/rand's seeding
// reduces specially (0, multiples of 2³¹−1, the fallback x₀ itself,
// the int64 extremes), and on requests longer than the jump-ahead
// window, which take the fallback path.
func TestSeededDrawsMatchMathRand(t *testing.T) {
	const m = 1<<31 - 1
	edges := []int64{0, 1, -1, m, -m, 2 * m, m - 1, m + 1, 89482311, -89482311, 1 << 31,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1}
	for _, s := range edges {
		for n := 0; n <= 2*jumpDraws+1; n++ {
			checkSeededDraws(t, s, n)
		}
	}
	r := rand.New(rand.NewSource(20260601))
	for i := 0; i < 100000; i++ {
		s := int64(r.Uint64())
		checkSeededDraws(t, s, jumpDraws)
		if i%16 == 0 {
			checkSeededDraws(t, s, 1+i/16%(3*jumpDraws))
		}
	}
}

// FuzzSeededDraws checks any seed and any request length, inside and
// past the jump-ahead window, against math/rand. Seed corpus:
// testdata/fuzz/FuzzSeededDraws.
func FuzzSeededDraws(f *testing.F) {
	f.Add(int64(0), uint8(jumpDraws))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		checkSeededDraws(t, seed, int(n))
	})
}

// Building a random initial condition allocates nothing per mode: no
// generator per mode, and no scratch.
func TestSetRandomZeroAllocs(t *testing.T) {
	mpi.Run(1, func(c *mpi.Comm) {
		s := New(c, 16, WithScalars(1, 0.7))
		defer s.Close()
		if a := testing.AllocsPerRun(5, func() { s.setRandom(3, 99, s.Uh[:]...) }); a != 0 {
			t.Errorf("setRandom (velocity) allocates %.1f per call", a)
		}
		if a := testing.AllocsPerRun(5, func() { s.setRandom(2.5, 3, s.state[3]) }); a != 0 {
			t.Errorf("setRandom (scalar blob) allocates %.1f per call", a)
		}
	})
}

// The random initial conditions are the same fields on every rank
// count, before any step: the draws of SetRandomIsotropic and
// SetFieldBlob, gathered at P = 1, 2 and 4, agree bit for bit. Each
// then normalises by a collective sum (energy, variance) whose rounding
// follows the rank count, so the normalised fields agree to an ulp or
// two of the factor.
func TestInitialConditionsRankCountInvariant(t *testing.T) {
	for _, tc := range []struct {
		name      string
		draw, set func(s *Solver)
		fields    func(s *Solver) [][]complex128
	}{
		{"SetRandomIsotropic",
			func(s *Solver) { s.setRandom(3, 99, s.Uh[:]...) },
			func(s *Solver) { s.SetRandomIsotropic(3, 0.5, 99) },
			func(s *Solver) [][]complex128 { return s.Uh[:] }},
		{"SetFieldBlob",
			func(s *Solver) { s.setRandom(2.5, 3, s.state[3]) },
			func(s *Solver) { s.SetFieldBlob(3, 2.5, 1.0, 3) },
			func(s *Solver) [][]complex128 { return s.state[3:4] }},
	} {
		// run returns the global fields, components in order, as drawn
		// and as normalised on p ranks.
		run := func(p int) (drawn, final []complex128) {
			slabs := make([][2][][]complex128, p) // rank → drawn/final → component
			mpi.Run(p, func(c *mpi.Comm) {
				s := New(c, 16, WithScalars(1, 0.7))
				defer s.Close()
				snap := func() [][]complex128 {
					var out [][]complex128
					for _, f := range tc.fields(s) {
						out = append(out, slices.Clone(f))
					}
					return out
				}
				tc.draw(s)
				slabs[c.Rank()][0] = snap()
				tc.set(s)
				slabs[c.Rank()][1] = snap()
			})
			// Slabs are z-outermost: rank order is global z order.
			var all [2][]complex128
			for k := range all {
				for comp := range slabs[0][k] {
					for _, r := range slabs {
						all[k] = append(all[k], r[k][comp]...)
					}
				}
			}
			return all[0], all[1]
		}
		refDrawn, refFinal := run(1)
		if !slices.ContainsFunc(refDrawn, func(v complex128) bool { return v != 0 }) {
			t.Fatalf("%s: every draw is zero", tc.name)
		}
		for _, p := range []int{2, 4} {
			drawn, final := run(p)
			if len(drawn) != len(refDrawn) {
				t.Fatalf("%s P=%d: %d modes, P=1 has %d", tc.name, p, len(drawn), len(refDrawn))
			}
			for i, v := range drawn {
				if w := refDrawn[i]; math.Float64bits(real(v)) != math.Float64bits(real(w)) ||
					math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
					t.Fatalf("%s P=%d: draws of mode %d = %v, P=1 %v", tc.name, p, i, v, w)
				}
			}
			for i, v := range final {
				if w := refFinal[i]; cmplx.Abs(v-w) > 1e-15*cmplx.Abs(w) {
					t.Fatalf("%s P=%d: mode %d = %v, P=1 %v", tc.name, p, i, v, w)
				}
			}
		}
	}
}
