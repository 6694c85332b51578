package pfft

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exchange"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/par"
	"repro/internal/transpose"
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

// slabWith builds the one-column engine at the slab's
// options with pair pinned, on the single-precision wire if single.
func slabWith(c *mpi.Comm, n, workers int, pair exchange.Pair, single bool) *SlabReal {
	opt := slabOptions(workers)
	opt.SingleComm = single
	return newSlabReal(c, nil, n, opt, pair)
}

// slabAT is the slab (np 1, one exchange per slab, one device) on the
// asynchrony-tolerant exchange with the given bound and deadline.
func slabAT(c *mpi.Comm, n, workers, maxStale int, deadline time.Duration) *SlabReal {
	opt := slabOptions(workers)
	opt.Exchange, opt.ATMaxStale, opt.ATDeadline = exchange.AT, maxStale, deadline
	return NewAsyncSlabReal(c, n, opt)
}

// slabSingle is the slab on the single-precision wire, its exchange
// strategies autotuned over the complex64 path.
func slabSingle(c *mpi.Comm, n, workers int) *SlabReal {
	opt := slabOptions(workers)
	opt.SingleComm = true
	return NewAsyncSlabReal(c, n, opt)
}

// testLayout is e's local geometry as a pencil layout: the slab's is
// the P×1 grid's, array for array.
func testLayout(e *SlabReal) *transpose.PencilLayout { return e.l }

// poisonEngine stores NaN over every element of the engine's own
// buffers — B and the single-precision wire's narrowed slabs — none of
// which a transform may read before writing. X, on a grid with Pc > 1,
// is the head of the caller's Fourier slab, which checkBandOracle
// poisons.
func poisonEngine(f *SlabReal) {
	bufs, bufs32 := [][]complex128{f.mid}, [][]complex64{f.four32, f.mid32}
	for _, buf := range bufs {
		for i := range buf {
			buf[i] = cmplx.NaN()
		}
	}
	for _, buf := range bufs32 {
		for i := range buf {
			buf[i] = complex64(cmplx.NaN())
		}
	}
}

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
// all bit for bit. The tail of the Fourier slab past C (Pc > 1, see
// FourierLen) is no mode: +0 after a forward, never read by an inverse.
// With poison, NaN is stored over the engine's buffers (poisonEngine)
// before every truncated transform, over all of the output slab before
// the forward and over the out-of-band modes and the tail of the input
// slab before each inverse: a band exchange that left a destination it
// should have written, or read what it should not, turns the answer
// into NaN. Panics (inside a TryRun body) on the first mismatch.
func checkBandOracle(f *SlabReal, kmaxes []int, poison bool) {
	l := testLayout(f)
	n := l.N
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
			return i < l.CLen() && band.Has(l.XLo+ix) && band.Has(iy) && band.Has(l.YRank*l.Mz2+iz)
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
		if poison {
			poisonEngine(f)
			for i := range four {
				four[i] = cmplx.NaN()
			}
		}
		f.PhysicalToFourier(four, phys0)
		for i, v := range four {
			if !sameBits(v, masked[i]) {
				panic(fmt.Sprintf("kmax=%d: truncated forward [%d] = %v, masked full %v (in band: %v)", kmax, i, v, masked[i], inBand(i)))
			}
		}
		for _, src := range [][]complex128{masked, full} {
			copy(four, src)
			if poison {
				poisonEngine(f)
				for i := range four {
					if !inBand(i) {
						four[i] = cmplx.NaN()
					}
				}
			}
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

// The band oracle on both engines, their buffers poisoned. The slab
// and the pencil grids: every valid Pr×Pc of P ∈ {1, 2, 4, 8} under
// every concrete strategy and two team sizes — pencil ranks whose whole
// x span lies outside the band (kb = 0) included — plus the
// single-precision wire and the asynchrony-tolerant exchange at
// staleness 0 on the slab. The batched pipeline: pencil counts that
// leave whole pencils outside the band (and, at two devices,
// sub-pencils of width one), both granularities and wire precisions,
// the fused and the chunked gather.
func TestTruncateMatchesMaskedFull(t *testing.T) {
	for _, n := range []int{12, 16} {
		run := func(p int, tag string, build func(c *mpi.Comm) *SlabReal) {
			if err := mpi.TryRun(p, func(c *mpi.Comm) {
				f := build(c)
				defer f.Close()
				checkBandOracle(f, bandKmaxes(n), true)
			}); err != nil {
				t.Fatalf("N=%d P=%d %s: %v", n, p, tag, err)
			}
		}
		for _, p := range []int{1, 2, 4, 8} {
			for _, d := range grids(n, p) {
				for _, st := range exchange.Concrete {
					for _, workers := range []int{1, 3} {
						run(p, fmt.Sprintf("%s %s workers=%d", d, st, workers), func(c *mpi.Comm) *SlabReal {
							if d.Pc == 1 {
								return NewSlabRealStrategy(c, n, workers, st)
							}
							row, col := c.CartGrid(d.Pr, d.Pc)
							return NewPencilReal(col, row, n, workers, exchange.Both(st))
						})
					}
				}
			}
			if n%p != 0 {
				continue
			}
			run(p, "slab f32 wire", func(c *mpi.Comm) *SlabReal {
				return slabWith(c, n, 2, exchange.Both(exchange.ChunkedFused), true)
			})
			run(p, "slab AT stale=0", func(c *mpi.Comm) *SlabReal { return slabAT(c, n, 2, 0, 2*time.Second) })
		}
		for _, p := range []int{1, 2, 4} {
			for _, np := range []int{1, 3, 4, 5} {
				for _, gran := range []Granularity{PerPencil, PerSlab} {
					for _, ngpu := range []int{1, 2} {
						for _, single := range []bool{false, true} {
							st := exchange.ChunkedFused
							if (np+ngpu)%2 == 0 {
								st = exchange.Fused
							}
							opt := Options{NP: np, Granularity: gran, NGPU: ngpu, SingleComm: single, Exchange: st, Workers: 1 + np%2}
							run(p, fmt.Sprintf("%+v", opt), func(c *mpi.Comm) *SlabReal { return NewAsyncSlabReal(c, n, opt) })
						}
					}
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
// and a band-limited field survives the truncated round trip. The last
// argument is the poison axis: its low bit poisons the engine's buffers
// and the spectra's out-of-band modes around every truncated transform,
// and the next bits pick the exchange behind them on a one-column grid
// — the pinned strategy at double precision, the single-precision wire
// (whose narrowed slabs are poisoned too) or the asynchrony-tolerant
// stage at staleness 0.
func FuzzTruncateBand(f *testing.F) {
	f.Fuzz(func(t *testing.T, half, prSel, pcSel, kSel, w, poison uint8) {
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
		st := exchange.Concrete[int(w)/3%len(exchange.Concrete)]
		wire := "f64"
		if pc == 1 {
			wire = []string{"f64", "f32", "at"}[int(poison)>>1%3]
		}
		if err := mpi.TryRun(pr*pc, func(c *mpi.Comm) {
			var e *SlabReal
			switch {
			case wire == "f32":
				e = slabWith(c, n, workers, exchange.Both(st), true)
			case wire == "at":
				e = slabAT(c, n, workers, 0, 2*time.Second)
			case pc == 1:
				e = NewSlabRealStrategy(c, n, workers, st)
			default:
				row, col := c.CartGrid(pr, pc)
				e = NewPencilReal(col, row, n, workers, exchange.Both(st))
			}
			defer e.Close()
			checkBandOracle(e, []int{kmax}, poison&1 == 1)

			e.Truncate(kmax)
			l := testLayout(e)
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
			tol := 1e-12
			if wire == "f32" {
				tol = 1e-5 // two narrowings per transform, ~1e-7 relative each
			}
			for i, v := range back {
				if math.Abs(v-limited[i]) > tol {
					panic(fmt.Sprintf("round trip of the band-limited field at %d: %v, was %v", i, v, limited[i]))
				}
			}
		}); err != nil {
			t.Fatalf("N=%d %dx%d kmax=%d workers=%d %s wire=%s poison=%v: %v", n, pr, pc, kmax, workers, st, wire, poison&1 == 1, err)
		}
	})
}

// sentinel is a NaN whose payload no kernel produces: an entry that
// still holds it was neither written nor cleared.
func sentinel[T exchange.Elem]() T {
	var v T
	switch p := any(&v).(type) {
	case *complex64:
		x := math.Float32frombits(0x7fc0beef)
		*p = complex(x, x)
	case *complex128:
		x := math.Float64frombits(0x7ff80000deadbeef)
		*p = complex(x, x)
	}
	return v
}

// bitsOf is the bit pattern of both parts of v.
func bitsOf[T exchange.Elem](v T) [2]uint64 {
	switch x := any(v).(type) {
	case complex64:
		return [2]uint64{uint64(math.Float32bits(real(x))), uint64(math.Float32bits(imag(x)))}
	case complex128:
		return [2]uint64{math.Float64bits(real(x)), math.Float64bits(imag(x))}
	}
	panic("unreachable")
}

// checkBandGather drives the row stage's kernels (exchange.SlabKernels) over one
// slab layout under every strategy, in both directions, at wire type T:
// first at the full band on source data that is +0 outside the band —
// the kb-prefix of the rows whose kz is in it — the reference — then at the
// band, with the sentinel stored over the source's out-of-band entries
// and over the whole destination. In-band destination entries must carry
// the reference's bits; YZ must store +0 over the kb-prefix of the
// out-of-band kz rows of B (the z lines read them), ZY must leave C's
// out-of-band planes alone; every other destination entry and every
// source sentinel must be untouched.
func checkBandGather[T exchange.Elem](c *mpi.Comm, n, kmax int) {
	p, me := c.Size(), c.Rank()
	wc := n/2 + 1
	band := grid.NewBand(n, kmax)
	kb := band.Width(0, wc)
	l := transpose.NewSlabLayout(wc, n, n/p, p)
	team := par.NewTeam(2)
	defer team.Close()
	nan := sentinel[T]()
	// Where an index of C = [Mz][Ny][Wc] (this rank's planes) and of
	// B = [My][Nz][Wc] sits: its global kz and its column.
	atC := func(i int) (kz, x int) { return me*l.Mz + i/wc/n, i % wc }
	atB := func(i int) (kz, x int) { return i / wc % n, i % wc }
	for _, st := range []exchange.Strategy{exchange.Fused, exchange.ChunkedFused, exchange.AT} {
		var bound *exchange.Bound
		if st == exchange.AT {
			bound = &exchange.Bound{Deadline: time.Second}
		}
		stage := exchange.NewStage(c, team, nil, l.Total, bound, exchange.SlabKernels[T](&l, me))
		for _, d := range []exchange.Dir{exchange.YZ, exchange.ZY} {
			srcAt, dstAt := atC, atB
			if d == exchange.ZY {
				srcAt, dstAt = atB, atC
			}
			clean, poisoned := make([]T, l.Total), make([]T, l.Total)
			for i := range clean {
				poisoned[i] = nan
				if kz, x := srcAt(i); band.Has(kz) && x < kb {
					clean[i] = T(complex(float64(me*l.Total+i)+0.5, -float64(i)))
					poisoned[i] = clean[i]
				}
			}
			want, got := make([]T, l.Total), make([]T, l.Total)
			l.SetBand(wc, grid.NewBand(n, -1))
			stage.Run(d, st, clean, want)
			for i := range got {
				got[i] = nan
			}
			l.SetBand(kb, band)
			stage.Run(d, st, poisoned, got)
			for i, v := range got {
				kz, x := dstAt(i)
				var expect T
				switch {
				case x < kb && band.Has(kz):
					expect = want[i]
				case x < kb && d == exchange.YZ:
				default:
					expect = nan
				}
				if bitsOf(v) != bitsOf(expect) {
					panic(fmt.Sprintf("%s dir %d kb=%d: destination [%d] (kz %d, x %d) = %v, want %v", st, d, kb, i, kz, x, v, expect))
				}
			}
			for i, v := range poisoned {
				if kz, x := srcAt(i); !(band.Has(kz) && x < kb) && bitsOf(v) != bitsOf(nan) {
					panic(fmt.Sprintf("%s dir %d: source sentinel [%d] overwritten with %v", st, d, i, v))
				}
			}
		}
		stage.Close()
	}
}

// The band gathers against the full ones, kernel by kernel: the row
// stage's fused and chunked gathers and the bounded gather
// move exactly the band and store exactly the zeros the receiving side
// owes (checkBandGather), at both wire types, for every band of the
// oracle and every rank count that divides N.
func TestBandGatherMatchesFull(t *testing.T) {
	for _, n := range []int{12, 16} {
		for _, p := range []int{1, 2, 3, 4} {
			if n%p != 0 {
				continue
			}
			for _, kmax := range bandKmaxes(n) {
				if err := mpi.TryRun(p, func(c *mpi.Comm) {
					checkBandGather[complex128](c, n, kmax)
					checkBandGather[complex64](c, n, kmax)
				}); err != nil {
					t.Fatalf("N=%d P=%d kmax=%d: %v", n, p, kmax, err)
				}
			}
		}
	}
}

// Every rank's exchange.bytes grows by what its exchanges read from
// remote ranks, and on a truncated engine that is the band. The row
// exchange of rank yG reads kb columns of each of its My rows from every
// in-band kz plane a peer holds (YZ, the inverse) and kb columns of a
// peer's My rows into each in-band plane it holds (ZY, the forward) —
// computed here from grid.Band and the grid's x spans alone, at the wire
// precision; a column group with kb = 0 exchanges nothing. The column
// exchange of a Pc > 1 grid still charges whole pencils (at kmax = 1
// the second column group of every 2×2 grid holds no in-band column).
// At the full band the counts are the off-diagonal share of whole
// slabs, as before the band reached the exchanges. On a one-column
// grid the counter of every rank is checked, on a pencil grid (whose
// sub-communicators share rank labels) the total.
//
// The batched pipeline's counts follow its plane groups (see
// checkAsyncBytes), under pencil counts past N/P too, which leave empty
// groups that are not exchanged.
func TestExchangeBytesAreInBand(t *testing.T) {
	type engine struct {
		name   string
		pr, pc int
		elem   int64 // bytes per wire element
		build  func(c *mpi.Comm, n int) *SlabReal
	}
	for _, n := range []int{12, 16, 48} {
		for _, p := range []int{1, 2, 3, 4} {
			if n%p != 0 {
				continue
			}
			engines := []engine{
				{"chunked", p, 1, 16, func(c *mpi.Comm, n int) *SlabReal {
					return NewSlabRealStrategy(c, n, 2, exchange.ChunkedFused)
				}},
				{"f32 fused", p, 1, 8, func(c *mpi.Comm, n int) *SlabReal {
					return slabWith(c, n, 1, exchange.Both(exchange.Fused), true)
				}},
				{"at", p, 1, 16, func(c *mpi.Comm, n int) *SlabReal {
					return slabAT(c, n, 1, 0, time.Second)
				}},
			}
			if p == 4 {
				engines = append(engines, engine{"2x2 chunked", 2, 2, 16, func(c *mpi.Comm, n int) *SlabReal {
					row, col := c.CartGrid(2, 2)
					return NewPencilReal(col, row, n, 1, exchange.Both(exchange.ChunkedFused))
				}})
			}
			for _, e := range engines {
				for _, kmax := range []int{-1, 1, grid.DealiasKmax(n)} {
					if err := checkExchangeBytes(n, kmax, e.pr, e.pc, e.elem, e.build); err != nil {
						t.Fatalf("N=%d %s %dx%d kmax=%d: %v", n, e.name, e.pr, e.pc, kmax, err)
					}
				}
			}
		}
	}
	for _, n := range []int{12, 16} {
		for _, p := range []int{1, 2, 4} {
			for _, np := range []int{1, 3, 4, 5} {
				for _, gran := range []Granularity{PerPencil, PerSlab} {
					for _, single := range []bool{false, true} {
						for _, st := range exchange.Concrete {
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

// checkExchangeBytes runs one inverse and one forward on a world of
// pr·pc ranks and compares each one's exchange.bytes growth with the
// band's count (see TestExchangeBytesAreInBand).
func checkExchangeBytes(n, kmax, pr, pc int, elem int64, build func(c *mpi.Comm, n int) *SlabReal) error {
	reg := metrics.NewRegistry()
	var want [2]atomic.Int64 // per direction, summed over the grid
	var got [2]int64
	total := func() (v int64) {
		for _, e := range reg.Snapshot().Entries {
			if e.Name == "exchange.bytes" {
				v += int64(e.Value)
			}
		}
		return v
	}
	return mpi.RunWith(pr*pc, reg, func(c *mpi.Comm) {
		f := build(c, n)
		defer f.Close()
		f.Truncate(kmax)
		l, band := testLayout(f), grid.NewBand(n, kmax)
		kb := int64(band.Width(l.XLo, l.XLo+l.Wc))
		inPlanes := func(yg int) (k int64) {
			for iz := 0; iz < l.Mz2; iz++ {
				if band.Has(yg*l.Mz2 + iz) {
					k++
				}
			}
			return k
		}
		var remote int64
		for yg := 0; yg < pr; yg++ {
			if yg != l.YRank {
				remote += inPlanes(yg)
			}
		}
		rowYZ, rowZY := remote*int64(l.My)*kb*elem, int64(pr-1)*inPlanes(l.YRank)*int64(l.My)*kb*elem
		col := int64(0)
		if pc > 1 {
			col = int64(l.PadXLen-l.PadXLen/pc) * 16
		}
		if kmax < 0 && pc == 1 {
			// The full band charges what the parent engine charged.
			old := int64(l.CLen()-l.CLen()/pr) * elem
			if rowYZ != old || rowZY != old {
				panic(fmt.Sprintf("full-band count %d/%d, the whole slab's share %d", rowYZ, rowZY, old))
			}
		}
		want[exchange.YZ].Add(rowYZ + col)
		want[exchange.ZY].Add(rowZY + col)
		four := make([]complex128, f.FourierLen())
		phys := make([]float64, f.PhysicalLen())
		own := reg.CounterRank("exchange.bytes", c.Rank())
		for _, d := range []exchange.Dir{exchange.YZ, exchange.ZY} {
			c.Barrier()
			before, mine := total(), own.Value()
			c.Barrier()
			if d == exchange.YZ {
				f.FourierToPhysical(phys, four)
			} else {
				f.PhysicalToFourier(four, phys)
			}
			if pc == 1 {
				expect := rowYZ
				if d == exchange.ZY {
					expect = rowZY
				}
				if delta := own.Value() - mine; delta != expect {
					panic(fmt.Sprintf("rank %d dir %d: exchange.bytes grew %d, the band's remote bytes are %d", c.Rank(), d, delta, expect))
				}
			}
			c.Barrier()
			if c.Rank() == 0 {
				got[d] = total() - before
			}
			c.Barrier()
			if c.Rank() == 0 && got[d] != want[d].Load() {
				panic(fmt.Sprintf("dir %d: exchange.bytes grew %d over the grid, the band's remote bytes are %d", d, got[d], want[d].Load()))
			}
		}
	})
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

// A column group whose whole x span lies outside the band (kb = 0) has
// nothing to move in its row exchange and skips it, on every rank of
// its row communicator alike; the column exchange still runs on every
// rank. N = 16 on 2×2 at kmax 1: column group 1 holds kx 5–8, so a
// transform pair runs 2 × (4 column + 2 row) exchange calls over the
// grid, not 2 × 8.
func TestEmptyColumnGroupSkipsRowExchange(t *testing.T) {
	const n, kmax = 16, 1
	reg := metrics.NewRegistry()
	calls := func() (v int64) {
		for _, e := range reg.Snapshot().Entries {
			if e.Name == "exchange.calls" {
				v += int64(e.Value)
			}
		}
		return v
	}
	var got atomic.Int64
	if err := mpi.RunWith(4, reg, func(c *mpi.Comm) {
		row, col := c.CartGrid(2, 2)
		f := NewPencilReal(col, row, n, 1, exchange.Both(exchange.ChunkedFused))
		defer f.Close()
		f.Truncate(kmax)
		four := make([]complex128, f.FourierLen())
		phys := make([]float64, f.PhysicalLen())
		c.Barrier()
		before := calls()
		c.Barrier()
		f.FourierToPhysical(phys, four)
		f.PhysicalToFourier(four, phys)
		c.Barrier()
		if c.Rank() == 0 {
			got.Store(calls() - before)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got.Load() != 12 {
		t.Fatalf("a truncated 2x2 transform pair ran %d exchange calls over the grid, want 12", got.Load())
	}
}
