package pfft

import (
	"fmt"
	"time"

	"repro/internal/exchange"
	"repro/internal/fft"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/par"
	"repro/internal/pool"
	"repro/internal/transpose"
)

// PencilReal is the production real-field transform on the 2D pencil
// decomposition: the Pr×Pc counterpart of SlabReal, scaling past the
// slab engine's P ≤ N rank ceiling (only Pr and Pc individually must
// divide N). Rank (yG, zG) of the process grid owns the physical
// pencil [My][Mz][Nx] (y range yG·My…, z range zG·Mz…, x complete)
// and the spectral pencil [Mz2][Wc][Ny] (y complete and fastest, the
// transform's natural output layout).
//
// The transform runs the slab engine's exact per-axis order — forward
// x (r2c), z, y; inverse y, z, x — through two transpose-exchanges
// instead of one (see transpose.PencilLayout): the column exchange
// over the Pc-rank column communicator trades the z split for an x
// split, the row exchange over the Pr-rank row communicator trades
// the y split for a z re-split. Because fft.Batch evaluates the same
// expression tree per output element whatever the layout — its line
// form (the unit-stride lines here) and its plane form (the slab's
// strided y and z passes) share one set of butterfly bodies — identical
// axis order makes the pencil transform bitwise identical to SlabReal
// for every valid Pr×Pc, including 1×P and the P=1 degenerate grid.
//
// Each sub-exchange is an exchange.Stage over its own communicator —
// the same stage, strategies and plans as the slab exchange, with the
// pencil layout kernels — pinned per transpose direction: pair.YZ
// drives both sub-exchanges of FourierToPhysical, pair.ZY both
// sub-exchanges of PhysicalToFourier. The steady-state transform path
// performs zero heap allocations: all buffers come from the process
// arena at plan time, worker bodies are precomputed closures, and the
// plans are watchdog-visible and abortable like every mpi collective.
//
// The engine is constructed double-precision and synchronous only: the
// stage would carry the single-precision wire and the asynchrony-
// tolerant exchange here as it does for the slab, but nothing can drive
// them until the solver runs on pencils. Tuned construction
// (NewRealTuned) accounts for both restrictions.
type PencilReal struct {
	commY *mpi.Comm // column communicator, size Pr: completes y, re-splits z
	commZ *mpi.Comm // row communicator, size Pc: completes z, splits x
	n     int
	nxh   int
	l     *transpose.PencilLayout
	team  *par.Team
	bx    []*fft.RealBatch // per worker: x r2c/c2r lines of one y-plane
	bz    []*fft.Batch     // per worker: z lines of one layout-B y-plane
	by    []*fft.Batch     // per worker: y lines of one layout-C z-plane

	xspec []complex128 // [My][Mz][Nxh], padded to PadXLen for publication
	layB  []complex128 // [My][Wc][Nz] z-complete intermediate
	// col trades the z split for an x split over commZ (xspec ↔ layB),
	// row trades the y split for a z re-split over commY (layB ↔ the
	// caller's spectral pencil).
	col *exchange.Stage[complex128]
	row *exchange.Stage[complex128]

	// Pinned concrete strategies, one per transpose direction (never
	// Auto).
	pair   exchange.Pair
	fftT   *metrics.Histogram
	closed bool

	// Staging fields for the precomputed worker bodies (see SlabReal).
	curFour []complex128
	curPhys []float64

	fwdXBody, invXBody func(w, lo, hi int) // over iy planes
	fwdZBody, invZBody func(w, lo, hi int) // over iy planes
	fwdYBody, invYBody func(w, lo, hi int) // over iz planes
}

// NewPencilReal builds the pencil transform over a process grid whose
// column communicator commY has size Pr and row communicator commZ
// size Pc (the caller typically obtains them from Comm.CartGrid).
// Both strategies of pair must be concrete: trial resolution needs a
// communicator spanning the whole grid, so tuned construction (and the
// slab-vs-pencil decomposition choice) is NewRealTuned's. Collective
// over both communicators: every rank must construct the transform at
// the same point in each sub-communicator's collective order.
func NewPencilReal(commY, commZ *mpi.Comm, n, workers int, pair exchange.Pair) *PencilReal {
	for _, st := range [2]exchange.Strategy{pair.YZ, pair.ZY} {
		switch st {
		case exchange.Staged, exchange.Fused, exchange.ChunkedFused:
		case exchange.AT:
			panic("pfft: the pencil engine has no asynchrony-tolerant mode; use the slab engine (NewSlabRealAT)")
		default:
			panic("pfft: the pencil engine needs concrete strategies; tune with NewRealTuned")
		}
	}
	pr, pc := commY.Size(), commZ.Size()
	l := transpose.NewPencilLayout(n, pr, pc, commY.Rank(), commZ.Rank())
	// Sub-communicators share the world registry, so label metrics with
	// the grid-global rank yG·Pc+zG (the parent comm's rank for
	// CartGrid-derived communicators), not the colliding per-group
	// sub-communicator rank.
	reg, rank := commY.Metrics(), commY.Rank()*pc+commZ.Rank()
	ph := exchange.NewPhases(reg, rank)
	f := &PencilReal{
		commY: commY, commZ: commZ,
		n: n, nxh: l.Nxh, l: l,
		team:  par.NewTeam(workers),
		xspec: pool.GetComplex(l.PadXLen),
		layB:  pool.GetComplex(l.BLen()),
		fftT:  reg.HistogramRank("phase.fft", rank),
	}
	for w := 0; w < workers; w++ {
		f.bx = append(f.bx, fft.NewRealBatch(n, l.Mz, 1, n, 1, l.Nxh))
		f.bz = append(f.bz, fft.NewBatch(n, l.Wc, 1, n, 1, n))
		f.by = append(f.by, fft.NewBatch(n, l.Wc, 1, n, 1, n))
	}
	// The column stage publishes the padded x-complete slab forward and
	// the (shorter, per-rank varying) z-complete slab inverse; PadXLen is
	// identical across the column group and divisible by Pc by
	// construction. The row stage's two layouts have equal length
	// (My == Mz2).
	f.col = exchange.NewStage(commZ, f.team, ph, pc*l.BlockC, l.PadXLen, nil, pencilColKernels[complex128](l))
	f.row = exchange.NewStage(commY, f.team, ph, pr*l.BlockR, l.BLen(), nil, pencilRowKernels[complex128](l))
	f.buildBodies()
	f.setStrategies(pair)
	return f
}

// pencilColKernels describes the column exchange to a stage: YZ moves
// the z-complete layout back into the x-complete slab (the inverse
// transform's second exchange), ZY the x-complete slab into the
// z-complete layout. Both sides split over iy.
//
//psdns:hotpath
func pencilColKernels[T exchange.Elem](l *transpose.PencilLayout) [2]exchange.Kernels[T] {
	return [2]exchange.Kernels[T]{
		exchange.YZ: {
			PackUnits: l.My, DstUnits: l.My, PeerUnits: l.My,
			Pack:   func(pack, src []T, lo, hi int) { transpose.PencilPackColInvRange(l, pack, src, lo, hi) },
			Unpack: func(dst, recv []T, lo, hi int) { transpose.PencilUnpackColInvRange(l, dst, recv, lo, hi) },
			Gather: func(dst []T, srcs [][]T, lo, hi int) { transpose.PencilGatherColInvRange(l, dst, srcs, lo, hi) },
			GatherPeer: func(dst, src []T, peer, lo, hi int) {
				transpose.PencilGatherColInvPeer(l, dst, src, peer, lo, hi)
			},
		},
		exchange.ZY: {
			PackUnits: l.My, DstUnits: l.My, PeerUnits: l.My,
			Pack:   func(pack, src []T, lo, hi int) { transpose.PencilPackColFwdRange(l, pack, src, lo, hi) },
			Unpack: func(dst, recv []T, lo, hi int) { transpose.PencilUnpackColFwdRange(l, dst, recv, lo, hi) },
			Gather: func(dst []T, srcs [][]T, lo, hi int) { transpose.PencilGatherColFwdRange(l, dst, srcs, lo, hi) },
			GatherPeer: func(dst, src []T, peer, lo, hi int) {
				transpose.PencilGatherColFwdPeer(l, dst, src, peer, lo, hi)
			},
		},
	}
}

// pencilRowKernels describes the row exchange: YZ moves the y-complete
// spectral pencil (split over iz) into the z-complete layout (split
// over iy) — the inverse transform's first exchange — and ZY is the
// mirror.
//
//psdns:hotpath
func pencilRowKernels[T exchange.Elem](l *transpose.PencilLayout) [2]exchange.Kernels[T] {
	return [2]exchange.Kernels[T]{
		exchange.YZ: {
			PackUnits: l.Mz2, DstUnits: l.My, PeerUnits: l.My,
			Pack:   func(pack, src []T, lo, hi int) { transpose.PencilPackRowInvRange(l, pack, src, lo, hi) },
			Unpack: func(dst, recv []T, lo, hi int) { transpose.PencilUnpackRowInvRange(l, dst, recv, lo, hi) },
			Gather: func(dst []T, srcs [][]T, lo, hi int) { transpose.PencilGatherRowInvRange(l, dst, srcs, lo, hi) },
			GatherPeer: func(dst, src []T, peer, lo, hi int) {
				transpose.PencilGatherRowInvPeer(l, dst, src, peer, lo, hi)
			},
		},
		exchange.ZY: {
			PackUnits: l.My, DstUnits: l.Mz2, PeerUnits: l.Mz2,
			Pack:   func(pack, src []T, lo, hi int) { transpose.PencilPackRowFwdRange(l, pack, src, lo, hi) },
			Unpack: func(dst, recv []T, lo, hi int) { transpose.PencilUnpackRowFwdRange(l, dst, recv, lo, hi) },
			Gather: func(dst []T, srcs [][]T, lo, hi int) { transpose.PencilGatherRowFwdRange(l, dst, srcs, lo, hi) },
			GatherPeer: func(dst, src []T, peer, lo, hi int) {
				transpose.PencilGatherRowFwdPeer(l, dst, src, peer, lo, hi)
			},
		},
	}
}

// setStrategies pins the per-direction strategies and publishes them
// under the grid-global rank.
func (f *PencilReal) setStrategies(pair exchange.Pair) {
	f.pair = pair
	publishStrategies(f.commY.Metrics(), f.commY.Rank()*f.l.Pc+f.commZ.Rank(), pair)
}

// buildBodies precomputes the team worker closures once, so transform
// calls dispatch them with zero allocations.
//
//psdns:hotpath
func (f *PencilReal) buildBodies() {
	l, n, nxh := f.l, f.n, f.nxh
	mz, wc := l.Mz, l.Wc
	f.fwdXBody = func(w, lo, hi int) {
		for iy := lo; iy < hi; iy++ {
			f.bx[w].Forward(f.xspec[iy*mz*nxh:(iy+1)*mz*nxh], f.curPhys[iy*mz*n:(iy+1)*mz*n])
		}
	}
	f.invXBody = func(w, lo, hi int) {
		for iy := lo; iy < hi; iy++ {
			f.bx[w].Inverse(f.curPhys[iy*mz*n:(iy+1)*mz*n], f.xspec[iy*mz*nxh:(iy+1)*mz*nxh])
		}
	}
	f.fwdZBody = func(w, lo, hi int) {
		for iy := lo; iy < hi; iy++ {
			plane := f.layB[iy*wc*n : (iy+1)*wc*n]
			f.bz[w].Forward(plane, plane)
		}
	}
	f.invZBody = func(w, lo, hi int) {
		for iy := lo; iy < hi; iy++ {
			plane := f.layB[iy*wc*n : (iy+1)*wc*n]
			f.bz[w].Inverse(plane, plane)
		}
	}
	f.fwdYBody = func(w, lo, hi int) {
		for iz := lo; iz < hi; iz++ {
			plane := f.curFour[iz*wc*n : (iz+1)*wc*n]
			f.by[w].Forward(plane, plane)
		}
	}
	f.invYBody = func(w, lo, hi int) {
		for iz := lo; iz < hi; iz++ {
			plane := f.curFour[iz*wc*n : (iz+1)*wc*n]
			f.by[w].Inverse(plane, plane)
		}
	}
}

// Layout reports the pencil geometry.
func (f *PencilReal) Layout() *transpose.PencilLayout { return f.l }

// FourierLen is the complex element count of one local spectral
// pencil (layout C = [Mz2][Wc][Ny]).
func (f *PencilReal) FourierLen() int { return f.l.CLen() }

// PhysicalLen is the real element count of one local physical pencil.
func (f *PencilReal) PhysicalLen() int { return f.l.My * f.l.Mz * f.n }

// Workers reports the worker-team size.
func (f *PencilReal) Workers() int { return f.team.Size() }

// Strategy reports the pinned FourierToPhysical-side strategy;
// StrategyZY the PhysicalToFourier side.
func (f *PencilReal) Strategy() exchange.Strategy   { return f.pair.YZ }
func (f *PencilReal) StrategyZY() exchange.Strategy { return f.pair.ZY }

// StrategyPair reports both pinned strategies as an exchange.Pair.
func (f *PencilReal) StrategyPair() exchange.Pair { return f.pair }

// Close releases the worker team, both stages and every pooled buffer
// back to the arena. The transform must not be used afterwards.
// Collective in effect (plan frees), like SlabReal.Close.
func (f *PencilReal) Close() {
	if f.closed {
		return
	}
	f.closed = true
	f.team.Close()
	f.col.Close()
	f.row.Close()
	for w := range f.bx {
		f.bx[w].Release()
		f.bz[w].Release()
		f.by[w].Release()
	}
	pool.PutComplex(f.xspec)
	pool.PutComplex(f.layB)
	f.xspec, f.layB = nil, nil
}

// FourierToPhysical transforms four=[mz2][wc][ny] (complex) into
// phys=[my][mz][nx] (real), with 1/N³ normalization — y, z, x inverse
// order, bitwise identical to SlabReal. four is consumed as scratch.
//
//psdns:hotpath
func (f *PencilReal) FourierToPhysical(phys []float64, four []complex128) {
	f.checkLen(phys, four)
	f.curFour, f.curPhys = four, phys
	t := time.Now()
	f.team.ForWorkers(f.l.Mz2, f.invYBody)
	f.fftT.ObserveSince(t)
	f.row.Run(exchange.YZ, f.pair.YZ, four, f.layB)
	t = time.Now()
	f.team.ForWorkers(f.l.My, f.invZBody)
	f.fftT.ObserveSince(t)
	f.col.Run(exchange.YZ, f.pair.YZ, f.layB, f.xspec)
	t = time.Now()
	f.team.ForWorkers(f.l.My, f.invXBody)
	f.fftT.ObserveSince(t)
	f.curFour, f.curPhys = nil, nil
}

// PhysicalToFourier transforms phys=[my][mz][nx] (real) into
// four=[mz2][wc][ny] (complex), unnormalized — x, z, y forward order,
// bitwise identical to SlabReal.
//
//psdns:hotpath
func (f *PencilReal) PhysicalToFourier(four []complex128, phys []float64) {
	f.checkLen(phys, four)
	f.curFour, f.curPhys = four, phys
	t := time.Now()
	f.team.ForWorkers(f.l.My, f.fwdXBody)
	f.fftT.ObserveSince(t)
	f.col.Run(exchange.ZY, f.pair.ZY, f.xspec, f.layB)
	t = time.Now()
	f.team.ForWorkers(f.l.My, f.fwdZBody)
	f.fftT.ObserveSince(t)
	f.row.Run(exchange.ZY, f.pair.ZY, f.layB, four)
	t = time.Now()
	f.team.ForWorkers(f.l.Mz2, f.fwdYBody)
	f.fftT.ObserveSince(t)
	f.curFour, f.curPhys = nil, nil
}

func (f *PencilReal) checkLen(phys []float64, four []complex128) {
	if len(four) != f.FourierLen() || len(phys) != f.PhysicalLen() {
		panic(fmt.Sprintf("pfft: pencil transform wants four %d phys %d, got %d %d",
			f.FourierLen(), f.PhysicalLen(), len(four), len(phys)))
	}
}

// runTrial executes direction d's two sub-exchanges under st on the
// trial pencil, without FFT stages: exchange-only trials compare
// decompositions fairly because the per-rank FFT line count is
// decomposition-invariant. Collective over both sub-communicators.
func (f *PencilReal) runTrial(d exchange.Dir, st exchange.Strategy, four []complex128) {
	if d == exchange.YZ {
		f.row.Run(d, st, four, f.layB)
		f.col.Run(d, st, f.layB, f.xspec)
	} else {
		f.col.Run(d, st, f.xspec, f.layB)
		f.row.Run(d, st, f.layB, four)
	}
}
