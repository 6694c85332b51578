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
)

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// poisonEngine stores NaN over every element of the engine's mid slab
// and narrowed (four32, mid32) buffers and, under Staged, over the unit
// stages' staged blocks, none of which a transform may read before
// writing. The blocks are the stages' own, so they are poisoned the
// way a transform fills them: by a ZY exchange of the NaN mid (or
// mid32), which packs NaN into every block the band uses and lands it
// in the recv blocks and a scratch Fourier slab (four32 on the f32
// wire, which stays NaN). Collective.
func poisonEngine(a *AsyncSlabReal) {
	for i := range a.mid {
		a.mid[i] = cmplx.NaN()
	}
	for _, buf := range [][]complex64{a.four32, a.mid32} {
		for i := range buf {
			buf[i] = complex64(cmplx.NaN())
		}
	}
	if a.strat == exchange.Staged {
		a.four = make([]complex128, a.FourierLen())
		a.exchange(exchange.ZY, exchange.Staged)
		a.four = nil
	}
}

// checkBandOracle is pfft's band oracle on the batched engine: on one
// rank of a freshly built (full) engine, for each kmax in turn, with F
// the full forward spectrum of a test field, M its copy with +0
// outside the band and B the full inverse of M — the truncated forward
// is M, the truncated inverse of M and of F itself is B, and
// Truncate(N/2) restores F, all bit for bit. Before every truncated
// transform NaN is stored over the engine's buffers (poisonEngine), and
// over all of the output spectrum before the forward and the
// out-of-band modes of the input spectrum before each inverse.
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

		a.Truncate(kmax)
		poisonEngine(a)
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
			copy(four, src)
			poisonEngine(a)
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

// The band oracle for the batched engine, its buffers poisoned: pencil
// counts that leave whole pencils outside the band (and, at two
// devices, sub-pencils of width one), both granularities and wire
// precisions, a staged and a zero-copy strategy.
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

// Every byte counter of the batched engine charges what moves, and an
// empty unit is not exchanged. Per transform and rank, computed here
// from grid.Band and the plane-group geometry alone:
//
//   - exchange.calls grows by the units holding a plane, under every
//     strategy;
//   - exchange.bytes by what those units' gathers read from the other
//     ranks, kb columns of each row: YZ, every peer's in-band kz planes
//     of the unit's range, my rows each; ZY, this rank's in-band planes,
//     the unit's rows from each peer; under Staged by the P−1 remote
//     staged blocks, every plane of the unit's range with my rows each;
//   - a pack op exists only where the wire packs — the f32 wire's
//     narrow — and its Bytes is what it writes, the kb
//     columns of the cell's in-band kz rows (YZ: every row of its
//     in-band planes; ZY: every plane's in-band kz rows); cuda.xfer.bytes
//     grows by their sum, by nothing on the f64 wire.
//
// At the full band each count is the whole unit's and the whole
// group's share. Pencil counts past N/P leave empty groups.
func TestExchangeBytesAreInBand(t *testing.T) {
	for _, n := range []int{12, 16} {
		for _, p := range []int{1, 2, 4} {
			for _, np := range []int{1, 3, 4, 5} {
				for _, gran := range []Granularity{PerPencil, PerSlab} {
					for _, single := range []bool{false, true} {
						for _, st := range []exchange.Strategy{exchange.ChunkedFused, exchange.Staged} {
							for _, kmax := range []int{-1, grid.DealiasKmax(n)} {
								opt := Options{NP: np, Granularity: gran, NGPU: 1 + (np+p)%2, SingleComm: single, Exchange: st}
								if err := mpi.RunWith(p, metrics.NewRegistry(), func(c *mpi.Comm) {
									checkAsyncBytes(c, n, kmax, opt)
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
}

// checkAsyncBytes is one rank of TestExchangeBytesAreInBand.
func checkAsyncBytes(c *mpi.Comm, n, kmax int, opt Options) {
	a := NewAsyncSlabReal(c, n, opt)
	defer a.Close()
	a.Truncate(kmax)
	p, me, nxh, m := c.Size(), c.Rank(), n/2+1, n/c.Size()
	elem := int64(16)
	if opt.SingleComm {
		elem = 8
	}
	band := grid.NewBand(n, kmax)
	inPlanes := func(lo, hi int) (k int) {
		for z := lo; z < hi; z++ {
			if band.Has(z) {
				k++
			}
		}
		return k
	}
	mine, all, kb := inPlanes(me*m, (me+1)*m), inPlanes(0, n), int64(band.Width(0, nxh))
	groups := splitRange(m, opt.NP)
	units := groups
	if opt.Granularity == PerSlab {
		units = []span{{0, m}}
	}
	var want [2]int64
	calls := int64(0)
	for _, u := range units {
		if u.width() > 0 {
			calls++
		}
		theirs := 0
		for s := 0; s < p; s++ {
			if s != me {
				theirs += inPlanes(s*m+u.lo, s*m+u.hi)
			}
		}
		yz, zy := int64(theirs*m)*kb*elem, int64((p-1)*mine*u.width())*kb*elem
		if size := int64(u.width() * n * nxh); kmax < 0 && (yz != (size-size/int64(p))*elem || zy != yz) {
			panic(fmt.Sprintf("full band: unit %v charges %d/%d, the whole unit's share is %d", u, yz, zy, (size-size/int64(p))*elem))
		}
		if opt.Exchange == exchange.Staged {
			yz = int64((p-1)*u.width()*m) * kb * elem
			zy = yz
		}
		want[exchange.YZ] += yz
		want[exchange.ZY] += zy
	}
	packs := opt.SingleComm
	var xfer [2]int64
	for d := range a.regT {
		for i, cl := range a.regT[d].cells {
			if !packs {
				if cl.pack.Run != nil || cl.pack.Bytes != 0 {
					panic(fmt.Sprintf("dir %d cell %d: a pack op on the f64 wire", d, i))
				}
				continue
			}
			sp := subRange(groups[i/opt.NGPU], i%opt.NGPU, opt.NGPU)
			rows := int64(sp.width() * all) // ZY: every plane's in-band kz rows
			if exchange.Dir(d) == exchange.YZ {
				rows = int64(inPlanes(me*m+sp.lo, me*m+sp.hi) * n) // YZ: every row of the in-band planes
			}
			if kmax < 0 && rows*kb != int64(sp.width()*n*nxh) {
				panic(fmt.Sprintf("full band: cell %d writes %d elements, its planes hold %d", i, rows*kb, sp.width()*n*nxh))
			}
			if cl.pack.Run == nil || cl.pack.Bytes != rows*kb*elem {
				panic(fmt.Sprintf("dir %d cell %d: pack op charges %d bytes, writes %d", d, i, cl.pack.Bytes, rows*kb*elem))
			}
			xfer[d] += rows * kb * elem
		}
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
