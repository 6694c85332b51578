package spectral

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/exchange"
	"repro/internal/mpi"
	"repro/internal/pfft"
)

// constructionBytes is the heap build allocates for one solver, the
// smallest of a few constructions so a stray allocation elsewhere in
// the process cannot inflate it.
func constructionBytes(build func() *Solver) uint64 {
	best := ^uint64(0)
	var ms runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		s := build()
		runtime.ReadMemStats(&ms)
		best = min(best, ms.TotalAlloc-before)
		s.Close()
	}
	return best
}

// RK4 holds RK2's storage: for every registered system, an RK4
// solver's construction heap is less than one field set above RK2's on
// the same engine. The only extra is the dt/2 integrating-factor table
// of each diffusive group and the plane it is gathered into.
func TestRK4HoldsRK2Storage(t *testing.T) {
	const n = 16
	spec := SystemSpec{
		Nu:      0.01,
		Forcing: ForcingSpec{KF: 2, Eps: 0.05, TCorr: 0.5, Seed: 3},
		Scalars: []ScalarSpec{{Schmidt: 1, MeanGrad: 1}, {Schmidt: 0.7}},
		Omega:   2,
	}
	for _, name := range Systems() {
		mpi.Run(1, func(c *mpi.Comm) {
			tr := pfft.NewSlabRealStrategy(c, n, 1, exchange.ChunkedFused)
			defer tr.Close()
			var bytes [2]uint64
			var nf int
			for i, sch := range []Scheme{RK2, RK4} {
				bytes[i] = constructionBytes(func() *Solver {
					sys, err := NewNamedSystem(name, spec)
					if err != nil {
						panic(err)
					}
					s := New(c, n, WithNu(spec.Nu), WithScheme(sch), WithDealias(Dealias23), WithSystemInstance(sys), WithTransform(tr))
					nf = s.Fields()
					return s
				})
			}
			set := uint64(nf * tr.FourierLen() * 16)
			t.Logf("%s: RK2 %d B, RK4 %d B, one field set %d B", name, bytes[0], bytes[1], set)
			if bytes[1] >= bytes[0]+set {
				t.Errorf("%s: RK4 construction allocates %d B over RK2's %d, at least one %d-field set (%d B) more", name, bytes[1]-bytes[0], bytes[0], nf, set)
			}
		})
	}
}

// The stepper stores one field set in the slab layout and every other
// one band-compact: for every registered system under each scheme at
// N = 16, the field sets and integrating-factor tables of a dealiased
// solver take less than one full field set, three band field sets and
// the tables. What the solver holds besides — the scratch of its
// transforms, its wavenumber tables, its system — is measured as the
// construction heap of the same solver without dealiasing (where the
// band is every mode) less its four full field sets and its tables.
// Storing the right-hand sides and stage buffers in the slab layout
// puts the dealiased solver three full field sets less three band field
// sets over.
func TestStageStorageIsBandCompact(t *testing.T) {
	const n = 16
	spec := SystemSpec{
		Nu:      0.01,
		Forcing: ForcingSpec{KF: 2, Eps: 0.05, TCorr: 0.5, Seed: 3},
		Scalars: []ScalarSpec{{Schmidt: 1, MeanGrad: 1}, {Schmidt: 0.7}},
		Omega:   2,
	}
	for _, name := range Systems() {
		for _, sch := range []Scheme{RK2, RK4} {
			mpi.Run(1, func(c *mpi.Comm) {
				tr := pfft.NewSlabRealStrategy(c, n, 1, exchange.ChunkedFused)
				defer tr.Close()
				var bytes [2]uint64
				var nf, bl, tables int
				for i, da := range []Dealias{DealiasNone, Dealias23} {
					bytes[i] = constructionBytes(func() *Solver {
						sys, err := NewNamedSystem(name, spec)
						if err != nil {
							panic(err)
						}
						s := New(c, n, WithNu(spec.Nu), WithScheme(sch), WithDealias(da), WithSystemInstance(sys), WithTransform(tr))
						nf, bl, tables = s.Fields(), s.BandLen(), 0
						for _, g := range s.difGroups {
							tables += 8 * (len(g.tab[0]) + len(g.tab[1]))
						}
						for _, p := range s.ifPlane {
							tables += 8 * len(p)
						}
						return s
					})
				}
				full, band := uint64(nf*tr.FourierLen()*16), uint64(nf*bl*16)
				besides := bytes[0] - 4*full - uint64(tables)
				got, bound := bytes[1]-besides, full+3*band+uint64(tables)
				t.Logf("%s/scheme%d: %d B constructed, %d B besides field sets and tables; one full set %d B, one band set %d B, tables %d B", name, sch, bytes[1], besides, full, band, tables)
				if got >= bound {
					t.Errorf("%s/scheme%d: field sets and tables take %d B, want under one full set + three band sets + tables = %d B", name, sch, got, bound)
				}
			})
		}
	}
}

// physicalFields counts the distinct []float64 backing arrays of length
// n reachable from v through the spectral package's own types: the walk
// enters no transform (whatever implements Transform) and no other
// package's values, so what it counts is what the solver and its
// system hold.
func physicalFields(v any, n int) int {
	pkg := reflect.TypeOf(Solver{}).PkgPath()
	transform := reflect.TypeOf((*Transform)(nil)).Elem()
	seen, arrays := map[uintptr]bool{}, map[uintptr]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		if v.Kind() != reflect.Interface && v.Type().Implements(transform) {
			return
		}
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			if v.Type().PkgPath() != pkg {
				return
			}
			for i := range v.NumField() {
				walk(v.Field(i))
			}
		case reflect.Array:
			for i := range v.Len() {
				walk(v.Index(i))
			}
		case reflect.Slice:
			if v.Type().Elem().Kind() == reflect.Float64 {
				if v.Len() == n {
					arrays[v.Pointer()] = true
				}
				return
			}
			for i := range v.Len() {
				walk(v.Index(i))
			}
		}
	}
	walk(reflect.ValueOf(v))
	return len(arrays)
}

// The nonlinear term needs three physical fields: each velocity
// product is written over a component it no longer needs (prodInto),
// so ns and forced-ns hold the three velocity components and nothing
// else of the physical size, and rotating-scalar adds its scalar and
// the scalar's product only when it carries scalars.
func TestNonlinearHoldsThreePhysicalFields(t *testing.T) {
	const n = 16
	for _, tc := range []struct {
		name    string
		scalars []ScalarSpec
		want    int
	}{
		{"ns", nil, 3},
		{"forced-ns", nil, 3},
		{"rotating-scalar", nil, 3},
		{"rotating-scalar", []ScalarSpec{{Schmidt: 1, MeanGrad: 1}, {Schmidt: 0.7}}, 5},
	} {
		spec := SystemSpec{Nu: 0.01, Forcing: ForcingSpec{KF: 2, Eps: 0.05}, Scalars: tc.scalars, Omega: 2}
		mpi.Run(2, func(c *mpi.Comm) {
			sys, err := NewNamedSystem(tc.name, spec)
			if err != nil {
				panic(err)
			}
			s := New(c, n, WithNu(spec.Nu), WithDealias(Dealias23Shift), WithSystemInstance(sys))
			defer s.Close()
			if got := physicalFields(s, s.tr.PhysicalLen()); got != tc.want && c.Rank() == 0 {
				t.Errorf("%s with %d scalars: solver and system hold %d physical fields, want %d", tc.name, len(tc.scalars), got, tc.want)
			}
		})
	}
}
