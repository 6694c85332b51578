package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/exchange"
	"repro/internal/mpi"
)

// engineGoldens pins the bits of a seeded PhysicalToFourier followed by
// a FourierToPhysical, hashed over every rank in rank order. The hashes
// were recorded on the engine as it stood before the pipeline became a
// replayed op program (commit 46643ae: staged through device slots by
// copies, one strided copy per packed row block), so "bitwise
// unchanged" is checked against that engine and not only against
// itself. The double-wire hash of a case is independent of strategy,
// granularity and worker count; the single-precision wire quantises
// once at pack time and has its own.
var engineGoldens = []struct {
	n, p, np, ngpu int
	double, single string
}{
	{n: 16, p: 2, np: 4, ngpu: 1,
		double: "34039260685e154d2612f79a00beed6f3e7ab68f",
		single: "14188bc392b69c7b1cf4b7892ad76a0d07f91b35"},
	{n: 64, p: 2, np: 4, ngpu: 1,
		double: "82832390b75bb9650d28c2aea606a08f0485f4ca",
		single: "67fbab21fb2141bbdd17a27a61c219e6ed447629"},
	{n: 12, p: 2, np: 3, ngpu: 2,
		double: "1ecf02117a7358c12a05e55385e7067071d58510",
		single: "17faf5d7a55279cf4ee3a073a8930df49d4ddf52"},
}

// engineHash runs the seeded pair on every rank and hashes the outputs.
func engineHash(t *testing.T, n, p int, opt Options) string {
	t.Helper()
	four := make([][]complex128, p)
	phys := make([][]float64, p)
	if err := mpi.TryRun(p, func(c *mpi.Comm) {
		a := NewAsyncSlabReal(c, n, opt)
		defer a.Close()
		rng := rand.New(rand.NewSource(int64(c.Rank()) + 2019))
		in := make([]float64, a.PhysicalLen())
		for i := range in {
			in[i] = rng.NormFloat64()
		}
		f := make([]complex128, a.FourierLen())
		a.PhysicalToFourier(f, in)
		four[c.Rank()] = append([]complex128(nil), f...)
		out := make([]float64, a.PhysicalLen())
		a.FourierToPhysical(out, f)
		phys[c.Rank()] = out
	}); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for r := 0; r < p; r++ {
		for _, z := range four[r] {
			put(real(z))
			put(imag(z))
		}
		for _, v := range phys[r] {
			put(v)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:20])
}

func TestEngineGoldenHashes(t *testing.T) {
	for _, g := range engineGoldens {
		for _, single := range []bool{false, true} {
			want := g.double
			if single {
				want = g.single
			}
			for _, st := range []exchange.Strategy{exchange.Staged, exchange.Fused, exchange.ChunkedFused} {
				for _, gran := range []Granularity{PerPencil, PerSlab} {
					for _, workers := range []int{1, 2} {
						name := fmt.Sprintf("n%d_np%d_ngpu%d_single%v_%s_gran%d_w%d", g.n, g.np, g.ngpu, single, st, gran, workers)
						got := engineHash(t, g.n, g.p, Options{
							NP: g.np, NGPU: g.ngpu, Granularity: gran, Workers: workers,
							SingleComm: single, Exchange: st,
						})
						if got != want {
							t.Errorf("%s: hash %s, pinned %s", name, got, want)
						}
					}
				}
			}
		}
	}
}
