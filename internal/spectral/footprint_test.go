package spectral

import (
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
