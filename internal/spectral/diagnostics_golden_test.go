package spectral

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/mpi"
)

// goldenRanks are the rank counts TestDiagnosticsBitwiseGolden runs
// at; diagGolden's columns follow this order.
var goldenRanks = [3]int{1, 2, 4}

// diagGolden pins every output of the walks over the Fourier slab —
// the reductions, spectra, initial conditions, vorticity, regrid and
// forcing — at N = 16: a reduced scalar as its Float64bits, an array
// or a field as the first 64 bits of the SHA-256 of its bits (fields
// stacked in rank order, which is the global [N][N][N/2+1] layout, so
// local-only outputs agree across P). Reductions fold in rank order,
// so those differ with P.
var diagGolden = map[string][3]string{
	"component_energy.0":         {"3fc5650040ae645a", "3fc5650040ae6460", "3fc5650040ae645d"},
	"component_energy.1":         {"3fc4c6bfb80d774d", "3fc4c6bfb80d7754", "3fc4c6bfb80d7755"},
	"component_energy.2":         {"3fc5836445ee3176", "3fc5836445ee3176", "3fc5836445ee3172"},
	"divergence_max":             {"3c840066656046c8", "3c840066656046c8", "3c840066656046c8"},
	"forced.band_energy":         {"3fb3c361714397d2", "3fb3c361714397ce", "3fb3c361714397d1"},
	"forced.state":               {"39ce90c1e1b8ae26", "ac78ef29b167e61b", "48e82c3877c8a7ef"},
	"grad.longitudinal.Flatness": {"400843c916310999", "400843c916310990", "400843c91631098f"},
	"grad.longitudinal.Max":      {"4010b52ee975344c", "4010b52ee975344c", "4010b52ee975344c"},
	"grad.longitudinal.Mean":     {"bc44800000000000", "bc43800000000000", "bc44b00000000000"},
	"grad.longitudinal.Min":      {"c00c32ba9a4d9760", "c00c32ba9a4d9760", "c00c32ba9a4d9760"},
	"grad.longitudinal.Skewness": {"3fb1510ea9804f47", "3fb1510ea9804f4e", "3fb1510ea9804f46"},
	"grad.longitudinal.Variance": {"3ff1d0d9c6bc4b7b", "3ff1d0d9c6bc4b76", "3ff1d0d9c6bc4b77"},
	"grad.velocity.Flatness":     {"40090b31c0865bc5", "40090b31c0865bf5", "40090b31c0865bea"},
	"grad.velocity.Max":          {"400401e9c615580a", "400401e9c615580a", "400401e9c615580a"},
	"grad.velocity.Mean":         {"bc5de00000000000", "0000000000000000", "bc4e000000000000"},
	"grad.velocity.Min":          {"c00138de6d8079a3", "c00138de6d8079a3", "c00138de6d8079a3"},
	"grad.velocity.Skewness":     {"3fb22ace4350b24c", "3fb22ace4350b25d", "3fb22ace4350b261"},
	"grad.velocity.Variance":     {"3fd5650040ae6465", "3fd5650040ae6454", "3fd5650040ae6456"},
	"helicity":                   {"3fcc1ab60c362d60", "3fcc1ab60c362d5a", "3fcc1ab60c362d52"},
	"ic.abc":                     {"949b1c6136941823", "949b1c6136941823", "949b1c6136941823"},
	"ic.blob":                    {"b02d9fa2bf06d3d3", "3629b33013067c45", "bfbfd90f21de29ab"},
	"ic.field_single_mode":       {"05ac155bea49f2ba", "05ac155bea49f2ba", "05ac155bea49f2ba"},
	"ic.random":                  {"9798cac13126151f", "9798cac13126151f", "9798cac13126151f"},
	"ic.single_mode":             {"9a051fcc9a9f98fb", "9a051fcc9a9f98fb", "9a051fcc9a9f98fb"},
	"ic.single_mode_kx0":         {"5adb6e5b0f79e995", "5adb6e5b0f79e995", "5adb6e5b0f79e995"},
	"ic.taylor_green":            {"f980c0451bf00481", "f980c0451bf00481", "f980c0451bf00481"},
	"longitudinal_correlation":   {"ad6f814fd141c46d", "5ffc0f44bd4eea82", "2c64c27278d35f86"},
	"nonlinear_transfer":         {"3c8bc80000000000", "3c70000000000000", "3c50000000000000"},
	"regrid.down":                {"26248db2d8ffcef1", "ab50a29a4bd0aaca", "26248db2d8ffcef1"},
	"regrid.up":                  {"282e63ae59ab8abe", "15bbc177df709d37", "282e63ae59ab8abe"},
	"scalar.dissipation":         {"3fd4471eaf438b26", "3fd4471eaf438b23", "3fd4471eaf438b27"},
	"scalar.spectrum":            {"e797091212627236", "7b097cd573c48aae", "47ee5761a9eac593"},
	"scalar.variance":            {"3ff0000000000000", "3feffffffffffff8", "3ff0000000000000"},
	"spectrum":                   {"5c7dae5c2f09e884", "2e3d9e33aa222575", "62ef0d55f9d33d19"},
	"stats.Dissipation":          {"3fd3ae321229a7d5", "3fd3ae321229a7cf", "3fd3ae321229a7cd"},
	"stats.Energy":               {"3fdfd7921f55068c", "3fdfd7921f550690", "3fdfd7921f550692"},
	"stats.Enstrophy":            {"401ec02e3c61163d", "401ec02e3c611634", "401ec02e3c611630"},
	"stats.IntegralT":            {"3ff9e3242ac9e432", "3ff9e3242ac9e43d", "3ff9e3242ac9e441"},
	"stats.KMaxEta":              {"3fe13cc7fd4d9342", "3fe13cc7fd4d9342", "3fe13cc7fd4d9342"},
	"stats.Kolmogorov":           {"3fb24876161e5c0e", "3fb24876161e5c0e", "3fb24876161e5c0e"},
	"stats.ReLambda":             {"4030617761d82704", "4030617761d82708", "4030617761d8270a"},
	"stats.TaylorScale":          {"3fe23405f2a64211", "3fe23405f2a64214", "3fe23405f2a64216"},
	"stats.URMS":                 {"3fe26df7d2f1c94c", "3fe26df7d2f1c94d", "3fe26df7d2f1c94e"},
	"vorticity":                  {"48100ce297e147de", "48100ce297e147de", "48100ce297e147de"},
	"vorticity_enstrophy":        {"401ec02e3c611626", "401ec02e3c611631", "401ec02e3c611636"},
}

func TestDiagnosticsBitwiseGolden(t *testing.T) {
	for col, p := range goldenRanks {
		got := diagnosticsDigest(p)
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if want, ok := diagGolden[k]; !ok || got[k] != want[col] {
				t.Errorf("p=%d %s: got %s, want %s", p, k, got[k], want[col])
			}
		}
		if len(got) != len(diagGolden) {
			t.Errorf("p=%d: %d outputs digested, %d pinned", p, len(got), len(diagGolden))
		}
	}
}

// diagnosticsDigest runs every pinned output on p ranks and returns
// its digest by name.
func diagnosticsDigest(p int) map[string]string {
	out := map[string]string{}
	fields := map[string][][][]complex128{} // name → component → rank → local slab
	var mu sync.Mutex
	scalar := func(c *mpi.Comm, name string, v float64) {
		if c.Rank() == 0 {
			mu.Lock()
			out[name] = fmt.Sprintf("%016x", math.Float64bits(v))
			mu.Unlock()
		}
	}
	bundle := func(c *mpi.Comm, name string, v any) {
		rv := reflect.ValueOf(v)
		for i := 0; i < rv.NumField(); i++ {
			scalar(c, name+"."+rv.Type().Field(i).Name, rv.Field(i).Float())
		}
	}
	array := func(c *mpi.Comm, name string, v []float64) {
		if c.Rank() == 0 {
			mu.Lock()
			out[name] = digest(v)
			mu.Unlock()
		}
	}
	gather := func(c *mpi.Comm, name string, comps ...[]complex128) {
		mu.Lock()
		defer mu.Unlock()
		if fields[name] == nil {
			fields[name] = make([][][]complex128, len(comps))
			for i := range comps {
				fields[name][i] = make([][]complex128, p)
			}
		}
		for i, f := range comps {
			fields[name][i][c.Rank()] = append([]complex128(nil), f...)
		}
	}
	base := []Option{WithNu(0.02), WithScheme(RK2), WithDealias(Dealias23)}

	mpi.Run(p, func(c *mpi.Comm) {
		s := New(c, 16, base...)
		defer s.Close()
		s.SetRandomIsotropic(3, 0.5, 424242)
		gather(c, "ic.random", s.Uh[0], s.Uh[1], s.Uh[2])
		s.Step(0.004)
		s.Step(0.004)
		bundle(c, "stats", s.Statistics())
		for i := 0; i < 3; i++ {
			scalar(c, fmt.Sprintf("component_energy.%d", i), s.ComponentEnergy(i))
		}
		scalar(c, "helicity", s.Helicity())
		scalar(c, "nonlinear_transfer", s.NonlinearEnergyTransfer())
		scalar(c, "vorticity_enstrophy", s.VorticityEnstrophyCheck())
		scalar(c, "divergence_max", s.DivergenceMax())
		bundle(c, "grad.longitudinal", s.LongitudinalGradientStats(0))
		bundle(c, "grad.velocity", s.VelocityMoments(0))
		array(c, "spectrum", s.Spectrum())
		array(c, "longitudinal_correlation", s.LongitudinalCorrelation())
		w := s.Vorticity()
		gather(c, "vorticity", w[0], w[1], w[2])

		s.SetTaylorGreen()
		gather(c, "ic.taylor_green", s.Uh[0], s.Uh[1], s.Uh[2])
		s.SetABCFlow(1, 0.7, 0.3)
		gather(c, "ic.abc", s.Uh[0], s.Uh[1], s.Uh[2])
		s.SetSingleMode(1, 2, 0, [3]complex128{2, -1, 0.5i})
		gather(c, "ic.single_mode", s.Uh[0], s.Uh[1], s.Uh[2])
		s.SetSingleMode(0, 1, -2, [3]complex128{1, 2i, 1i})
		gather(c, "ic.single_mode_kx0", s.Uh[0], s.Uh[1], s.Uh[2])

		r := New(c, 16, append(base, WithScalars(1, 0.7), WithRotation(0.5))...)
		defer r.Close()
		r.SetRandomIsotropic(3, 0.5, 5)
		r.SetFieldBlob(3, 2.5, 1.0, 3)
		gather(c, "ic.blob", r.state[3])
		scalar(c, "scalar.variance", r.FieldVariance(3))
		scalar(c, "scalar.dissipation", r.FieldDissipation(3))
		array(c, "scalar.spectrum", r.Spectrum(3))
		r.SetFieldSingleMode(3, 0, 2, -1, complex(0.5, 0.25))
		gather(c, "ic.field_single_mode", r.state[3])

		small := New(c, 16, base...)
		defer small.Close()
		small.SetRandomIsotropic(3, 0.5, 17)
		big := New(c, 24, base...)
		defer big.Close()
		Regrid(big, small)
		gather(c, "regrid.up", big.Uh[0], big.Uh[1], big.Uh[2])
		Regrid(small, big)
		gather(c, "regrid.down", small.Uh[0], small.Uh[1], small.Uh[2])

		f := New(c, 16, append(base, WithForcing(2, 0.1), WithForcingNoise(0.5, 42))...)
		defer f.Close()
		f.SetRandomIsotropic(3, 0.5, 11)
		for i := 0; i < 5; i++ {
			f.Step(0.004)
		}
		gather(c, "forced.state", f.Uh[0], f.Uh[1], f.Uh[2])
		scalar(c, "forced.band_energy", f.System().(*ForcedNS).Forcing().BandEnergy(f))
	})
	for name, comps := range fields {
		var all []complex128
		for _, ranks := range comps {
			for _, slab := range ranks {
				all = append(all, slab...)
			}
		}
		out[name] = digest(all)
	}
	return out
}

// digest is the first 64 bits of the SHA-256 of v's bits.
func digest[T float64 | complex128](v []T) string {
	h := sha256.New()
	var b [8]byte
	word := func(x float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	for _, x := range v {
		switch x := any(x).(type) {
		case float64:
			word(x)
		case complex128:
			word(real(x))
			word(imag(x))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
