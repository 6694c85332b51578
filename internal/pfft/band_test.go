package pfft

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/exchange"
	"repro/internal/grid"
	"repro/internal/mpi"
)

// sameBits reports whether two spectra (or, through complex(v, 0), two
// real fields) agree bit for bit — signs of zero included.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// bandKmaxes are the bands every oracle case runs: the mean mode alone,
// one mode, the 2/3 rule, everything but the Nyquist planes, full.
func bandKmaxes(n int) []int { return []int{0, 1, grid.DealiasKmax(n), n/2 - 1, n / 2} }

// checkBandOracle is the band contract on one rank of a freshly built
// (so: full) engine, for each kmax in turn. With F the full forward
// spectrum of the test field, M its copy with +0 outside the band and
// B the full inverse of M:
//
//   - the truncated forward is F inside the band and +0 outside,
//   - the truncated inverse of M is B — and so is the truncated
//     inverse of F itself, whose out-of-band modes must not be read,
//   - Truncate(N/2) afterwards restores F everywhere,
//
// all bit for bit. Panics (inside a TryRun body) on the first mismatch.
func checkBandOracle(f *Engine, kmaxes []int) {
	n, l := f.n, f.Layout()
	phys0 := make([]float64, f.PhysicalLen())
	for iy := 0; iy < l.My; iy++ {
		for iz := 0; iz < l.Mz; iz++ {
			for ix := 0; ix < n; ix++ {
				phys0[(iy*l.Mz+iz)*n+ix] = pencilField(n, ix, l.YRank*l.My+iy, l.ZRank*l.Mz+iz)
			}
		}
	}
	fl, pl := f.FourierLen(), f.PhysicalLen()
	full, four, masked := make([]complex128, fl), make([]complex128, fl), make([]complex128, fl)
	back, phys := make([]float64, pl), make([]float64, pl)
	f.PhysicalToFourier(full, phys0)
	for _, kmax := range kmaxes {
		band := grid.NewBand(n, kmax)
		inBand := func(i int) bool {
			ix, iy, iz := i%l.Wc, i/l.Wc%n, i/l.Wc/n
			return band.Has(l.XLo+ix) && band.Has(iy) && band.Has(l.YRank*l.Mz2+iz)
		}
		for i, v := range full {
			masked[i] = 0
			if inBand(i) {
				masked[i] = v
			}
		}
		copy(four, masked)
		f.FourierToPhysical(back, four)

		f.Truncate(kmax)
		f.PhysicalToFourier(four, phys0)
		for i, v := range four {
			if !sameBits(v, masked[i]) {
				panic(fmt.Sprintf("kmax=%d: truncated forward [%d] = %v, masked full %v (in band: %v)", kmax, i, v, masked[i], inBand(i)))
			}
		}
		for _, src := range [][]complex128{masked, full} {
			copy(four, src)
			f.FourierToPhysical(phys, four)
			for i, v := range phys {
				if math.Float64bits(v) != math.Float64bits(back[i]) {
					panic(fmt.Sprintf("kmax=%d: truncated inverse [%d] = %v, full inverse of the masked spectrum %v", kmax, i, v, back[i]))
				}
			}
		}

		f.Truncate(n / 2)
		f.PhysicalToFourier(four, phys0)
		for i, v := range four {
			if !sameBits(v, full[i]) {
				panic(fmt.Sprintf("kmax=%d: Truncate(N/2) did not restore the full forward at %d: %v vs %v", kmax, i, v, full[i]))
			}
		}
	}
}

// The band oracle for the synchronous engine: every valid Pr×Pc of
// P ∈ {1, 2, 4, 8} under every concrete strategy and two team sizes —
// pencil ranks whose whole x span lies outside the band (kb = 0)
// included — plus the single-precision wire and the asynchrony-tolerant
// exchange at staleness 0 where they run (Pc = 1).
func TestTruncateMatchesMaskedFull(t *testing.T) {
	for _, n := range []int{12, 16} {
		for _, p := range []int{1, 2, 4, 8} {
			for _, d := range grids(n, p) {
				run := func(tag string, build func(c *mpi.Comm) *Engine) {
					if err := mpi.TryRun(p, func(c *mpi.Comm) {
						f := build(c)
						defer f.Close()
						checkBandOracle(f, bandKmaxes(n))
					}); err != nil {
						t.Fatalf("N=%d %s %s: %v", n, d, tag, err)
					}
				}
				for _, st := range []exchange.Strategy{exchange.Staged, exchange.Fused, exchange.ChunkedFused} {
					for _, workers := range []int{1, 3} {
						run(fmt.Sprintf("%s workers=%d", st, workers), func(c *mpi.Comm) *Engine {
							row, col := c.CartGrid(d.Pr, d.Pc)
							return NewPencilReal(col, row, n, workers, exchange.Both(st))
						})
					}
				}
				if d.Pc == 1 {
					run("f32 wire", func(c *mpi.Comm) *Engine {
						return newEngine(c, nil, n, 2, exchange.Both(exchange.ChunkedFused), nil, true)
					})
					run("AT stale=0", func(c *mpi.Comm) *Engine {
						return NewSlabRealAT(c, n, 2, 0, 2*time.Second)
					})
				}
			}
		}
	}
}

// FuzzTruncateBand is the band oracle over fuzzed geometry — N ≤ 16,
// any Pr×Pc of up to 16 ranks, 1–3 workers, every concrete strategy,
// kmax from −1 to past N/2: the truncated forward is the masked full
// forward bit for bit, the truncated inverse reads nothing outside the
// band, Truncate(N/2) restores the full transform (checkBandOracle),
// and a band-limited field survives the truncated round trip.
func FuzzTruncateBand(f *testing.F) {
	f.Fuzz(func(t *testing.T, half, prSel, pcSel, kSel, w uint8) {
		n := 2 * (1 + int(half)%8)
		var prs, pcs []int
		for d := 1; d <= n; d++ {
			if n%d == 0 {
				prs = append(prs, d)
				if d <= n/2+1 {
					pcs = append(pcs, d)
				}
			}
		}
		pr, pc := prs[int(prSel)%len(prs)], pcs[int(pcSel)%len(pcs)]
		if pr*pc > 16 {
			t.Skip("more ranks than the fuzzer should spin up per input")
		}
		kmax := int(kSel)%(n/2+3) - 1
		workers := 1 + int(w)%3
		st := []exchange.Strategy{exchange.Staged, exchange.Fused, exchange.ChunkedFused}[int(w)/3%3]
		if err := mpi.TryRun(pr*pc, func(c *mpi.Comm) {
			row, col := c.CartGrid(pr, pc)
			e := NewPencilReal(col, row, n, workers, exchange.Both(st))
			defer e.Close()
			checkBandOracle(e, []int{kmax})

			e.Truncate(kmax)
			l := e.Layout()
			phys := make([]float64, e.PhysicalLen())
			for i := range phys {
				phys[i] = pencilField(n, i%n, l.YRank*l.My+i/n/l.Mz, l.ZRank*l.Mz+i/n%l.Mz)
			}
			four := make([]complex128, e.FourierLen())
			limited, back := make([]float64, len(phys)), make([]float64, len(phys))
			e.PhysicalToFourier(four, phys)
			e.FourierToPhysical(limited, four)
			e.PhysicalToFourier(four, limited)
			e.FourierToPhysical(back, four)
			for i, v := range back {
				if math.Abs(v-limited[i]) > 1e-12 {
					panic(fmt.Sprintf("round trip of the band-limited field at %d: %v, was %v", i, v, limited[i]))
				}
			}
		}); err != nil {
			t.Fatalf("N=%d %dx%d kmax=%d workers=%d %s: %v", n, pr, pc, kmax, workers, st, err)
		}
	})
}
