package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/exchange"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/pfft"
)

// exchangeUnits are the batched pipeline's exchange units on a rank of
// m planes, computed here from the Options alone (Fig 3): NP
// contiguous plane groups, the first m mod NP one plane wider than the
// rest (so groups past m planes are empty), or the whole slab under
// PerSlab.
func exchangeUnits(m int, opt pfft.Options) [][2]int {
	if opt.Granularity == pfft.PerSlab {
		return [][2]int{{0, m}}
	}
	units := make([][2]int, opt.NP)
	lo := 0
	for i := range units {
		w := m / opt.NP
		if i < m%opt.NP {
			w++
		}
		units[i] = [2]int{lo, lo + w}
		lo += w
	}
	return units
}

// poisonThrough stores NaN over every buffer of a that a transform
// writes, through the exported transform pair alone: at the full band
// the inverse of a NaN spectrum and the forward of a NaN field run
// through every intermediate slab and wire slab, then a
// is truncated back to kmax. A band transform that reads a destination
// it has not written then turns its answer into NaN. Collective.
func poisonThrough(a *pfft.SlabReal, kmax int) {
	four := make([]complex128, a.FourierLen())
	phys := make([]float64, a.PhysicalLen())
	for i := range four {
		four[i] = cmplx.NaN()
	}
	for i := range phys {
		phys[i] = math.NaN()
	}
	a.Truncate(-1)
	a.FourierToPhysical(phys, four)
	for i := range phys {
		phys[i] = math.NaN()
	}
	a.PhysicalToFourier(four, phys)
	a.Truncate(kmax)
}

// checkMaskedFull is the band contract of the batched pipeline as its
// callers see it, on one rank of a freshly built (full) engine, for
// each kmax in turn. With F the full forward spectrum of a test field,
// M its copy with +0 outside the band and B the full inverse of M: the
// truncated forward is M, the truncated inverse of M and of F itself is
// B, and Truncate(N/2) restores F, all bit for bit. Before every
// truncated transform the engine is poisoned through its transforms
// (poisonThrough), the output spectrum before the forward and the
// out-of-band modes of the input spectrum before each inverse.
func checkMaskedFull(a *pfft.SlabReal, kmaxes []int) {
	s, nxh := a.Slab(), a.NXH()
	n := s.N
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
		inBand := func(i int) bool {
			return band.Has(i%nxh) && band.Has(i/nxh%n) && band.Has(s.ZLo()+i/nxh/n)
		}
		for i, v := range full {
			masked[i] = 0
			if inBand(i) {
				masked[i] = v
			}
		}
		copy(four, masked)
		a.FourierToPhysical(back, four)

		poisonThrough(a, kmax)
		for i := range four {
			four[i] = cmplx.NaN()
		}
		a.PhysicalToFourier(four, phys0)
		for i, v := range four {
			if !sameBits(v, masked[i]) {
				panic(fmt.Sprintf("kmax=%d: truncated forward [%d] = %v, masked full %v", kmax, i, v, masked[i]))
			}
		}
		for _, src := range [][]complex128{masked, full} {
			poisonThrough(a, kmax)
			copy(four, src)
			for i := range four {
				if !inBand(i) {
					four[i] = cmplx.NaN()
				}
			}
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

// The band oracle for the batched pipeline through its exported API
// alone (pfft's same-named test poisons the engine's own buffers from
// inside): pencil counts that leave whole pencils outside the band
// (and, at two devices, sub-pencils of width one), both granularities
// and wire precisions, the fused and the chunked gather.
func TestTruncateMatchesMaskedFull(t *testing.T) {
	for _, n := range []int{12, 16} {
		kmaxes := []int{0, 1, grid.DealiasKmax(n), n/2 - 1, n / 2}
		for _, p := range []int{1, 2, 4} {
			for _, np := range []int{3, 5} {
				for _, gran := range []pfft.Granularity{pfft.PerPencil, pfft.PerSlab} {
					for _, ngpu := range []int{1, 2} {
						for _, single := range []bool{false, true} {
							st := exchange.Fused
							if (np+ngpu+p)%2 == 0 {
								st = exchange.ChunkedFused
							}
							opt := pfft.Options{NP: np, Granularity: gran, NGPU: ngpu, SingleComm: single, Exchange: st, Workers: ngpu}
							if err := mpi.TryRun(p, func(c *mpi.Comm) {
								a := pfft.NewAsyncSlabReal(c, n, opt)
								defer a.Close()
								checkMaskedFull(a, kmaxes)
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

// Every counter the batched pipeline exports charges what moves, and an
// empty unit is not exchanged. Per transform and rank, computed here
// from grid.Band and the plane-group geometry alone:
//
//   - exchange.calls grows by the units holding a plane;
//   - exchange.bytes by what those units' gathers read from the other
//     ranks, kb columns of each row: YZ, every peer's in-band kz planes
//     of the unit's range, my rows each; ZY, this rank's in-band planes,
//     the unit's rows from each peer;
//   - cuda.xfer.bytes by what the f32 wire's narrowing writes — YZ
//     every row of this rank's in-band planes, ZY every plane's in-band
//     kz rows, kb columns each, however the devices split the groups —
//     and by nothing on the f64 wire.
//
// The bands are those pfft's same-named table leaves out (the mean
// mode alone, one mode, all but the Nyquist planes), under the fused
// exchange, at one and two devices.
func TestExchangeBytesAreInBand(t *testing.T) {
	for _, n := range []int{12, 16} {
		for _, p := range []int{1, 2, 4} {
			for _, np := range []int{3, 4, 5} {
				for _, gran := range []pfft.Granularity{pfft.PerPencil, pfft.PerSlab} {
					for _, single := range []bool{false, true} {
						for _, kmax := range []int{0, 1, n/2 - 1} {
							opt := pfft.Options{NP: np, Granularity: gran, NGPU: 1 + (np+p)%2, SingleComm: single, Exchange: exchange.Fused}
							if err := mpi.RunWith(p, metrics.NewRegistry(), func(c *mpi.Comm) {
								checkExportedBytes(c, n, kmax, opt)
							}); err != nil {
								t.Fatalf("N=%d P=%d kmax=%d %+v: %v", n, p, kmax, opt, err)
							}
						}
					}
				}
			}
		}
	}
}

// checkExportedBytes is one rank of TestExchangeBytesAreInBand.
func checkExportedBytes(c *mpi.Comm, n, kmax int, opt pfft.Options) {
	a := pfft.NewAsyncSlabReal(c, n, opt)
	defer a.Close()
	a.Truncate(kmax)
	p, me, m := c.Size(), c.Rank(), n/c.Size()
	elem := int64(16)
	if opt.SingleComm {
		elem = 8
	}
	band := grid.NewBand(n, kmax)
	inPlanes := func(lo, hi int) (k int64) {
		for z := lo; z < hi; z++ {
			if band.Has(z) {
				k++
			}
		}
		return k
	}
	mine, all, kb := inPlanes(me*m, (me+1)*m), inPlanes(0, n), int64(band.Width(0, n/2+1))
	var calls int64
	var want, xfer [2]int64
	for _, u := range exchangeUnits(m, opt) {
		w := int64(u[1] - u[0])
		if w > 0 {
			calls++
		}
		var theirs int64
		for s := 0; s < p; s++ {
			if s != me {
				theirs += inPlanes(s*m+u[0], s*m+u[1])
			}
		}
		want[exchange.YZ] += theirs * int64(m) * kb * elem
		want[exchange.ZY] += int64(p-1) * mine * w * kb * elem
	}
	if opt.SingleComm {
		xfer[exchange.YZ] = mine * int64(n) * kb * elem
		xfer[exchange.ZY] = int64(m) * all * kb * elem
	}
	reg := c.Metrics()
	counters := []*metrics.Counter{
		reg.CounterRank("exchange.calls", me), reg.CounterRank("exchange.bytes", me), reg.CounterRank("cuda.xfer.bytes", me),
	}
	four := make([]complex128, a.FourierLen())
	phys := make([]float64, a.PhysicalLen())
	for _, d := range []exchange.Dir{exchange.YZ, exchange.ZY} {
		var before [3]int64
		for i, ctr := range counters {
			before[i] = ctr.Value()
		}
		if d == exchange.YZ {
			a.FourierToPhysical(phys, four)
		} else {
			a.PhysicalToFourier(four, phys)
		}
		for i, expect := range []int64{calls, want[d], xfer[d]} {
			if delta := counters[i].Value() - before[i]; delta != expect {
				panic(fmt.Sprintf("dir %d: counter %d grew %d, want %d", d, i, delta, expect))
			}
		}
	}
}
