package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/exchange"
	"repro/internal/grid"
	"repro/internal/mpi"
)

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// checkBandOracle is pfft's band oracle on the batched engine: on one
// rank of a freshly built (full) engine, for each kmax in turn, with F
// the full forward spectrum of a test field, M its copy with +0
// outside the band and B the full inverse of M — the truncated forward
// is M, the truncated inverse of M and of F itself is B, and
// Truncate(N/2) restores F, all bit for bit.
func checkBandOracle(a *AsyncSlabReal, kmaxes []int) {
	n, s, nxh := a.n, a.Slab(), a.NXH()
	fl, pl := a.FourierLen(), a.PhysicalLen()
	phys0 := make([]float64, pl)
	for i := range phys0 {
		phys0[i] = math.Sin(0.7*float64(s.YLo()*n*n+i) + 0.3)
	}
	full, four, masked := make([]complex128, fl), make([]complex128, fl), make([]complex128, fl)
	back, phys := make([]float64, pl), make([]float64, pl)
	a.PhysicalToFourier(full, phys0)
	for _, kmax := range kmaxes {
		band := grid.NewBand(n, kmax)
		for i, v := range full {
			masked[i] = 0
			if band.Has(i%nxh) && band.Has(i/nxh%n) && band.Has(s.ZLo()+i/nxh/n) {
				masked[i] = v
			}
		}
		copy(four, masked)
		a.FourierToPhysical(back, four)

		a.Truncate(kmax)
		a.PhysicalToFourier(four, phys0)
		for i, v := range four {
			if !sameBits(v, masked[i]) {
				panic(fmt.Sprintf("kmax=%d: truncated forward [%d] = %v, masked full %v", kmax, i, v, masked[i]))
			}
		}
		for _, src := range [][]complex128{masked, full} {
			copy(four, src)
			a.FourierToPhysical(phys, four)
			for i, v := range phys {
				if math.Float64bits(v) != math.Float64bits(back[i]) {
					panic(fmt.Sprintf("kmax=%d: truncated inverse [%d] = %v, full inverse of the masked spectrum %v", kmax, i, v, back[i]))
				}
			}
		}

		a.Truncate(n / 2)
		a.PhysicalToFourier(four, phys0)
		for i, v := range four {
			if !sameBits(v, full[i]) {
				panic(fmt.Sprintf("kmax=%d: Truncate(N/2) did not restore the full forward at %d: %v vs %v", kmax, i, v, full[i]))
			}
		}
	}
}

// The band oracle for the batched engine: pencil counts that leave
// whole pencils outside the band (and, at two devices, sub-pencils of
// width one), both granularities and wire precisions, a staged and a
// zero-copy strategy.
func TestTruncateMatchesMaskedFull(t *testing.T) {
	for _, n := range []int{12, 16} {
		kmaxes := []int{0, 1, grid.DealiasKmax(n), n/2 - 1, n / 2}
		for _, p := range []int{1, 2, 4} {
			for _, np := range []int{1, 3, 4, 5} {
				for _, gran := range []Granularity{PerPencil, PerSlab} {
					for _, ngpu := range []int{1, 2} {
						for _, single := range []bool{false, true} {
							st := exchange.ChunkedFused
							if (np+ngpu)%2 == 0 {
								st = exchange.Staged
							}
							opt := Options{NP: np, Granularity: gran, NGPU: ngpu, SingleComm: single, Exchange: st, Workers: 1 + np%2}
							if err := mpi.TryRun(p, func(c *mpi.Comm) {
								a := NewAsyncSlabReal(c, n, opt)
								defer a.Close()
								checkBandOracle(a, kmaxes)
							}); err != nil {
								t.Fatalf("N=%d P=%d %+v: %v", n, p, opt, err)
							}
						}
					}
				}
			}
		}
	}
}
