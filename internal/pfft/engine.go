package pfft

import (
	"fmt"
	"time"

	"repro/internal/exchange"
	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/par"
	"repro/internal/pool"
	"repro/internal/transpose"
	"repro/internal/tuning"
)

// Engine is the DNS transform pair — real physical fields,
// conjugate-symmetric half-spectra (Nxh = N/2+1 in x) in Fourier space
// — on a Pr×Pc process grid. The slab decomposition is its one-column
// grid (Pc = 1), so there is one synchronous engine, not a slab engine
// and a pencil engine.
//
// Rank (yG, zG) owns the physical pencil [My][Mz][Nx] and the spectral
// pencil C = [Mz2][Ny][Wc]; x is the fastest axis of every layout (see
// transpose.PencilLayout), so transposes move whole x-rows and the y
// and z FFT passes run in plane form. The per-axis order is forward x
// (r2c), z, y and inverse y, z, x on every grid, and fft.Batch
// evaluates one expression tree per output element whatever the
// layout, so every valid Pr×Pc — P×1, 1×P and grids past the slab's
// P ≤ N ceiling alike — produces bitwise-identical results for any
// team size and any concrete strategy.
//
// A transform is FFT passes around transpose-exchange stages, each an
// exchange.Stage over its own communicator:
//
//   - the row stage (commY, Pr ranks) trades the y split of the
//     z-complete B = [My][Nz][Wc] for the z re-split of C. It is the
//     slab transpose with Nxh := Wc, and carries the single-precision
//     wire and the asynchrony-tolerant bound;
//   - the column stage (commZ, Pc ranks) trades the z split of the
//     x-complete X = [My][Mz][Nxh] for the x split of B. It exists only
//     when Pc > 1: on one column it would be an identity copy (measured
//     at 6–14 % of a transform pair), so there B aliases X and the z
//     and x passes of a y-plane run back to back while it is in cache.
//
// pair.YZ drives every exchange of FourierToPhysical, pair.ZY every
// exchange of PhysicalToFourier. The steady-state transform path
// performs zero heap allocations: buffers come from the process arena
// at plan time, the stages' plans are persistent, the worker bodies are
// precomputed closures dispatched through the reusable team, and phase
// timings use allocation-free ObserveSince instrumentation.
type Engine struct {
	l    *transpose.PencilLayout
	n    int
	team *par.Team
	// Per-worker plans (plans carry scratch and are not concurrency-safe).
	byz []*fft.Batch     // y lines of a C z-plane, z lines of a B y-plane: the kb in-band columns of [N][Wc]
	bx  []*fft.RealBatch // the Mz half-spectrum ↔ real x lines of a y-plane, band-limited to the in-band bins

	// The band the passes transform and the row stage moves (Truncate;
	// full at construction): kb of this rank's Wc columns hold a kx
	// inside it, zIn marks C's z-planes whose kz is, [gapLo, gapHi) are
	// the ky (and kz) storage rows that are not. rl is the row stage's
	// layout, which carries the same band to its kernels.
	kb           int
	zIn          []bool
	gapLo, gapHi int
	rl           transpose.SlabLayout
	kmax         *metrics.Gauge // transform.kmax

	x   []complex128 // X, padded to PadXLen for publication
	mid []complex128 // B; the same buffer as x when Pc = 1

	// Exactly one row stage exists, at the precision the exchange ships.
	// On the single-precision wire (the paper's production format) the
	// FFT passes still compute in float64; a narrow pass in front of the
	// stage and a widen pass behind it bracket every strategy, so the
	// wire — staged blocks or zero-copy gathers alike — carries half the
	// bytes for ~1e-7 relative rounding per transform.
	row    *exchange.Stage[complex128]
	wire   *exchange.Stage[complex64]
	four32 []complex64 // narrowed C
	mid32  []complex64 // narrowed B
	col    *exchange.Stage[complex128]

	// The pinned concrete strategies (never Auto), one per transpose
	// direction: the two stream mirrored access patterns, so the tuner
	// measures and pins them independently.
	pair   exchange.Pair
	fftT   *metrics.Histogram
	ph     exchange.Phases
	closed bool

	// Staging fields for the precomputed worker bodies: the transform
	// entry points publish the current operand slices here so the team
	// bodies (built once in the constructor) reference them without a
	// per-call closure allocation.
	curFour []complex128
	curPhys []float64

	invYBody, fwdYBody            func(w, lo, hi int) // over iz planes of C
	invZXBody, fwdXZBody          func(w, lo, hi int) // over iy planes, Pc = 1
	invZBody, fwdZBody            func(w, lo, hi int) // over iy planes of B, Pc > 1
	invXBody, fwdXBody            func(w, lo, hi int) // over iy planes of X, Pc > 1
	narrowFourBody, widenFourBody func(w, lo, hi int) // over iz planes
	narrowMidBody, widenMidBody   func(w, lo, hi int) // over iy planes
}

// SlabReal is the engine under the name its slab constructors return.
type SlabReal = Engine

// NewSlabReal builds the DNS transform for an N³ real field (even N)
// on the slab decomposition with a single worker per rank.
func NewSlabReal(comm *mpi.Comm, n int) *SlabReal {
	return NewSlabRealWorkers(comm, n, 1)
}

// NewSlabRealWorkers builds the slab transform with a team of workers
// per rank (workers ≥ 1) — the paper's hybrid MPI+OpenMP layer —
// autotuning the transpose-exchange strategy at plan time. Collective:
// every rank must construct the transform at the same point in its
// collective order (the stage's persistent plans register state across
// ranks, and the autotuner runs collective trials).
func NewSlabRealWorkers(comm *mpi.Comm, n, workers int) *SlabReal {
	return NewSlabRealStrategy(comm, n, workers, exchange.Auto)
}

// NewSlabRealStrategy builds the slab transform with an explicit
// transpose-exchange strategy. exchange.Auto times every concrete
// strategy per direction at the actual (N, P, workers) — the
// NewRealTuned trial loop over the default space, with no cache — and
// pins the collectively-agreed winners; a concrete strategy skips the
// trials and pins that strategy on every rank. Collective.
func NewSlabRealStrategy(comm *mpi.Comm, n, workers int, strat exchange.Strategy) *SlabReal {
	if strat == exchange.Auto {
		return NewRealTuned(comm, n, workers, tuning.DecompSlab, tuning.Config{})
	}
	return newEngine(comm, nil, n, workers, exchange.Both(strat), nil, false)
}

// NewSlabRealSingle builds the slab transform on the single-precision
// wire: FFT stages compute in float64, but every transpose-exchange
// narrows the moving slab to complex64 first — half the bytes through
// pack/exchange/unpack for ~1e-7 relative rounding per transform, the
// paper's production wire format. The exchange strategies are autotuned
// over the complex64 path at plan time. Collective.
func NewSlabRealSingle(comm *mpi.Comm, n, workers int) *SlabReal {
	return NewRealTuned(comm, n, workers, tuning.DecompSlab,
		tuning.Config{Space: tuning.Space{Single: []bool{true}}})
}

// NewSlabRealAT builds the slab transform on the asynchrony-tolerant
// exchange: each transpose direction runs through its own bounded plan
// with the given staleness bound (in that plan's exchange epochs) and
// per-plan deadline, so a straggling rank delays its peers by at most
// the deadline once they are within maxStale epochs — and a stale slab
// is always the same direction's (and, with SetATSite, the same
// quantity's) publication from an earlier cycle. The observed staleness
// is drained with TakeStaleness by scheme-correcting callers.
// Collective.
func NewSlabRealAT(comm *mpi.Comm, n, workers, maxStale int, deadline time.Duration) *SlabReal {
	if maxStale < 0 {
		panic(fmt.Sprintf("pfft: negative staleness bound %d", maxStale))
	}
	return newEngine(comm, nil, n, workers, exchange.Both(exchange.AT),
		&exchange.Bound{MaxStale: maxStale, Deadline: deadline}, false)
}

// NewPencilReal builds the transform over a process grid whose column
// communicator commY has size Pr and row communicator commZ size Pc
// (the caller typically obtains them from Comm.CartGrid). Both
// strategies of pair must be concrete: trial resolution needs a
// communicator spanning the whole grid, so tuned construction (and the
// choice of decomposition) is NewRealTuned's. Collective over both
// communicators: every rank must construct the transform at the same
// point in each sub-communicator's collective order.
func NewPencilReal(commY, commZ *mpi.Comm, n, workers int, pair exchange.Pair) *Engine {
	return newEngine(commY, commZ, n, workers, pair, nil, false)
}

// newEngine is the one constructor: the grid is commY × commZ (a nil
// commZ is the one-column grid of the slab constructors), pair is
// pinned — both concrete, or both AT with a bound. pair, single and
// bound are identical on every rank, so the collective registration
// order stays uniform.
func newEngine(commY, commZ *mpi.Comm, n, workers int, pair exchange.Pair, bound *exchange.Bound, single bool) *Engine {
	pc, zRank := 1, 0
	if commZ != nil {
		pc, zRank = commZ.Size(), commZ.Rank()
	}
	for _, st := range [2]exchange.Strategy{pair.YZ, pair.ZY} {
		switch {
		case st == exchange.AT && bound == nil:
			panic("pfft: exchange.AT needs a staleness bound: the asynchrony-tolerant exchange is NewSlabRealAT's")
		case st == exchange.Auto:
			panic("pfft: the engine needs concrete strategies; tune with NewRealTuned")
		}
	}
	if pc > 1 && (single || bound != nil) {
		panic("pfft: the single-precision wire and the asynchrony-tolerant exchange need a one-column grid (Pc = 1)")
	}
	if single && bound != nil {
		panic("pfft: the single-precision pipeline does not support the asynchrony-tolerant exchange")
	}
	l := transpose.NewPencilLayout(n, commY.Size(), pc, commY.Rank(), zRank)
	// Sub-communicators share the world registry, so metrics are
	// labelled with the grid-global rank yG·Pc+zG (the parent comm's
	// rank for CartGrid-derived communicators), not the per-group
	// sub-communicator rank that would collide across groups.
	reg, rank := commY.Metrics(), commY.Rank()*pc+zRank
	f := &Engine{
		l:    l,
		n:    n,
		team: par.NewTeam(workers),
		x:    pool.GetComplex(l.PadXLen),
		fftT: reg.HistogramRank("phase.fft", rank),
		ph:   exchange.NewPhases(reg, rank),

		pair: pair,
		kmax: reg.GaugeRank("transform.kmax", rank),

		byz: make([]*fft.Batch, workers),
		bx:  make([]*fft.RealBatch, workers),
		zIn: make([]bool, l.Mz2),
		// The row stage is the slab transpose of [Mz2][Ny][Wc].
		rl: transpose.NewSlabLayout(l.Wc, n, l.Mz2, l.Pr),
	}
	// Staging slabs and the stage exist only in the precision the
	// exchange ships, and a stage's pack and recv blocks only when a
	// pinned direction is Staged — the only strategy that touches them.
	rl := &f.rl
	rowBlocks, colBlocks := 0, 0
	if pair.YZ == exchange.Staged || pair.ZY == exchange.Staged {
		rowBlocks, colBlocks = rl.Total, pc*l.BlockC
	}
	if single {
		f.four32 = pool.GetComplex64(rl.Total)
		f.mid32 = pool.GetComplex64(rl.Total)
		f.wire = exchange.NewStage(commY, f.team, f.ph, rowBlocks, rl.Total, nil, slabKernels[complex64](rl, commY.Rank()))
	} else {
		f.row = exchange.NewStage(commY, f.team, f.ph, rowBlocks, rl.Total, bound, slabKernels[complex128](rl, commY.Rank()))
	}
	f.mid = f.x
	if pc > 1 {
		// The column stage publishes the padded X forward and the
		// (shorter, per-rank varying) B inverse; PadXLen is identical
		// across the column group and divisible by Pc by construction.
		f.mid = pool.GetComplex(l.BLen())
		f.col = exchange.NewStage(commZ, f.team, f.ph, colBlocks, l.PadXLen, nil, colKernels[complex128](l))
	}
	f.Truncate(-1)
	f.buildBodies()
	reg.GaugeRank("exchange.strategy", rank).Set(pair.YZ.Code())
	reg.GaugeRank("exchange.strategy.zy", rank).Set(pair.ZY.Code())
	return f
}

// slabKernels describes the slab transpose to a stage: YZ moves the
// Fourier-side slab into the physical-side layout (split over iz on
// the source side, iy on the destination side), ZY is the mirror. All
// gathers run the cache-blocked variants (bitwise-identical, tiled
// traversal) so the strided side stops thrashing at N ≥ 128. The
// kernels are generic, so the same code moves both wire precisions,
// and read the band from l on every call, so Truncate reaches them
// without rebuilding anything.
//
//psdns:hotpath
func slabKernels[T exchange.Elem](l *transpose.SlabLayout, me int) [2]exchange.Kernels[T] {
	const tile = transpose.DefaultGatherTile
	return [2]exchange.Kernels[T]{
		exchange.YZ: {
			PackUnits: l.Mz, DstUnits: l.My, PeerUnits: l.My,
			Pack:   func(pack, src []T, lo, hi int) { transpose.PackYZRange(l, pack, src, me, lo, hi) },
			Unpack: func(dst, recv []T, lo, hi int) { transpose.UnpackYZRange(l, dst, recv, lo, hi) },
			Gather: func(dst []T, srcs [][]T, lo, hi int) {
				transpose.GatherYZRangeBlocked(l, dst, srcs, me, lo, hi, tile)
			},
			GatherPeer: func(dst, src []T, peer, lo, hi int) {
				transpose.GatherYZPeerBlocked(l, dst, src, me, peer, lo, hi, tile)
			},
		},
		exchange.ZY: {
			PackUnits: l.My, DstUnits: l.Mz, PeerUnits: l.Mz,
			Pack:   func(pack, src []T, lo, hi int) { transpose.PackZYRange(l, pack, src, lo, hi) },
			Unpack: func(dst, recv []T, lo, hi int) { transpose.UnpackZYRange(l, dst, recv, me, lo, hi) },
			Gather: func(dst []T, srcs [][]T, lo, hi int) {
				transpose.GatherZYRangeBlocked(l, dst, srcs, me, lo, hi, tile)
			},
			GatherPeer: func(dst, src []T, peer, lo, hi int) {
				transpose.GatherZYPeerBlocked(l, dst, src, me, peer, lo, hi, tile)
			},
		},
	}
}

// colKernels describes the column exchange to a stage: YZ moves the
// z-complete B back into the x-complete X (the inverse transform's
// second exchange), ZY moves X into B. Both sides split over iy.
//
//psdns:hotpath
func colKernels[T exchange.Elem](l *transpose.PencilLayout) [2]exchange.Kernels[T] {
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

// buildBodies precomputes the team worker closures once, so transform
// calls dispatch them with zero allocations. The closure bodies are
// the per-plane transform kernels, annotated hot so the analyzer
// checks inside them even though the closures are built at plan time.
//
//psdns:hotpath
func (f *Engine) buildBodies() {
	l := f.l
	cp := f.n * l.Wc               // one z-plane of C, one y-plane of B
	xp, pp := l.Mz*l.Nxh, l.Mz*f.n // one y-plane of X, of the physical pencil
	// The inverse reads only what its lines and the row exchange read:
	// the kb columns of C's in-band z-planes, with +0 stored over the
	// gap rows of those columns first, since the lines take them as
	// input (the receiving side of the exchange stores the zeros of the
	// out-of-band planes in B). The forward stores the band's zeros over
	// everything else after its lines: the exchange filled the kb
	// columns of the in-band planes and nothing more.
	f.invYBody = func(w, lo, hi int) {
		for iz := lo; iz < hi; iz++ {
			if !f.zIn[iz] {
				continue
			}
			plane := f.curFour[iz*cp : (iz+1)*cp]
			transpose.ZeroOutOfBand(plane, f.n, l.Wc, f.kb, f.kb, f.gapLo, f.gapHi)
			f.byz[w].Inverse(plane, plane)
		}
	}
	f.fwdYBody = func(w, lo, hi int) {
		for iz := lo; iz < hi; iz++ {
			plane := f.curFour[iz*cp : (iz+1)*cp]
			if !f.zIn[iz] {
				clear(plane)
				continue
			}
			f.byz[w].Forward(plane, plane)
			transpose.ZeroOutOfBand(plane, f.n, l.Wc, l.Wc, f.kb, f.gapLo, f.gapHi)
		}
	}
	if f.col == nil {
		// One column: B is X, so a y-plane takes its z pass and its
		// complex-to-real x pass ([Nz][Nxh] ↔ [Nz][Nx]) back to back.
		f.invZXBody = func(w, lo, hi int) {
			for iy := lo; iy < hi; iy++ {
				plane := f.x[iy*xp : (iy+1)*xp]
				f.byz[w].Inverse(plane, plane)
				f.bx[w].Inverse(f.curPhys[iy*pp:(iy+1)*pp], plane)
			}
		}
		f.fwdXZBody = func(w, lo, hi int) {
			for iy := lo; iy < hi; iy++ {
				plane := f.x[iy*xp : (iy+1)*xp]
				f.bx[w].Forward(plane, f.curPhys[iy*pp:(iy+1)*pp])
				f.byz[w].Forward(plane, plane)
			}
		}
	} else {
		f.invZBody = func(w, lo, hi int) {
			for iy := lo; iy < hi; iy++ {
				plane := f.mid[iy*cp : (iy+1)*cp]
				f.byz[w].Inverse(plane, plane)
			}
		}
		f.fwdZBody = func(w, lo, hi int) {
			for iy := lo; iy < hi; iy++ {
				plane := f.mid[iy*cp : (iy+1)*cp]
				f.byz[w].Forward(plane, plane)
			}
		}
		f.invXBody = func(w, lo, hi int) {
			for iy := lo; iy < hi; iy++ {
				f.bx[w].Inverse(f.curPhys[iy*pp:(iy+1)*pp], f.x[iy*xp:(iy+1)*xp])
			}
		}
		f.fwdXBody = func(w, lo, hi int) {
			for iy := lo; iy < hi; iy++ {
				f.bx[w].Forward(f.x[iy*xp:(iy+1)*xp], f.curPhys[iy*pp:(iy+1)*pp])
			}
		}
	}
	if f.wire == nil {
		return
	}
	// Strided narrow/widen passes bracketing the single-precision
	// stage, a plane of C or of B per unit, converting what the band's
	// gathers move: the kb columns of C's in-band z-planes (every row),
	// and of B's in-band kz rows — on the widen side every kz row of B,
	// since the YZ gather stores the zeros of the others, which the z
	// lines read.
	f.narrowFourBody = func(_, lo, hi int) {
		for iz := lo; iz < hi; iz++ {
			if f.zIn[iz] {
				transpose.NarrowStrided(f.four32[iz*cp:], l.Wc, f.curFour[iz*cp:], l.Wc, f.kb, f.n)
			}
		}
	}
	f.widenFourBody = func(_, lo, hi int) {
		for iz := lo; iz < hi; iz++ {
			if f.zIn[iz] {
				transpose.WidenStrided(f.curFour[iz*cp:], l.Wc, f.four32[iz*cp:], l.Wc, f.kb, f.n)
			}
		}
	}
	f.narrowMidBody = func(_, lo, hi int) {
		for iy := lo; iy < hi; iy++ {
			at, past := iy*cp, iy*cp+f.gapHi*l.Wc
			transpose.NarrowStrided(f.mid32[at:], l.Wc, f.mid[at:], l.Wc, f.kb, f.gapLo)
			transpose.NarrowStrided(f.mid32[past:], l.Wc, f.mid[past:], l.Wc, f.kb, f.n-f.gapHi)
		}
	}
	f.widenMidBody = func(_, lo, hi int) {
		transpose.WidenStrided(f.mid[lo*cp:], l.Wc, f.mid32[lo*cp:], l.Wc, f.kb, (hi-lo)*f.n)
	}
}

// Truncate band-limits the transform pair to the modes with every
// |k_i| ≤ kmax (kmax < 0 or ≥ N/2: all of them, the state at
// construction). Afterwards FourierToPhysical takes every mode outside
// the band as zero without reading it, and PhysicalToFourier returns
// exactly +0 there; inside the band both produce, bit for bit, what
// the full transform produces from a spectrum that is +0 outside it
// (the stage programs of internal/fft map an all-(+0) line to an
// all-(+0) line, so the lines skipped are lines whose result is known).
//
// The saving is in all three passes and the row exchange. The y and z
// passes run only the lines whose other two wavenumbers are in the
// band: the per-worker y/z batch is rebuilt at this rank's in-band
// width kb = |[XLo, XLo+Wc) ∩ [0, kmax]| (stride still Wc; the old
// plans are released), and the y pass skips C's out-of-band z-planes.
// The x pass is rebuilt at the band's width of the whole half-spectrum,
// band.Width(0, Nxh): its r2c stores and its c2r loads stop at that
// bin. The row exchange moves the kb columns of the in-band kz rows —
// its gathers, packs and the single-precision wire's conversions, under
// every strategy — stores the zeros the inverse's z lines read in B on
// the receiving side, and charges exchange.bytes what it moves; a
// column group with kb = 0 skips it. The column exchange (Pc > 1) still
// moves whole pencils; the x bins past the band are never read. Plan
// time, not hot path; every rank of the grid must truncate to the same
// band between the same transforms.
func (f *Engine) Truncate(kmax int) {
	if f.closed {
		return
	}
	l, band := f.l, grid.NewBand(f.n, kmax)
	f.kb = band.Width(l.XLo, l.XLo+l.Wc)
	f.gapLo, f.gapHi = band.Gap()
	for iz := range f.zIn {
		f.zIn[iz] = band.Has(l.YRank*l.Mz2 + iz)
	}
	f.rl.SetBand(f.kb, band)
	yz, zy := f.rl.RemoteElems(l.YRank)
	if f.wire != nil {
		f.wire.SetWireElems(exchange.YZ, yz)
		f.wire.SetWireElems(exchange.ZY, zy)
	} else {
		f.row.SetWireElems(exchange.YZ, yz)
		f.row.SetWireElems(exchange.ZY, zy)
	}
	kx := band.Width(0, l.Nxh)
	for w := range f.byz {
		if f.byz[w] != nil {
			f.byz[w].Release()
			f.bx[w].Release()
		}
		f.byz[w] = fft.NewBatch(f.n, f.kb, l.Wc, 1, l.Wc, 1)
		f.bx[w] = fft.NewBandRealBatch(f.n, kx, l.Mz, 1, f.n, 1, l.Nxh)
	}
	f.kmax.Set(float64(band.Kmax))
}

// Layout reports the grid geometry.
func (f *Engine) Layout() *transpose.PencilLayout { return f.l }

// Slab reports the slab geometry of a one-column grid. The solver's
// state and wavenumber maps are written for that layout, so asking a
// Pc > 1 grid for it is a caller bug, reported here rather than as
// silently misindexed fields.
func (f *Engine) Slab() grid.Slab {
	if f.l.Pc > 1 {
		panic(fmt.Sprintf("pfft: the solver is slab-only: a %d×%d grid has no slab geometry (use a Pc = 1 decomposition)",
			f.l.Pr, f.l.Pc))
	}
	return grid.NewSlab(f.n, f.l.Pr, f.l.YRank)
}

// NXH is the stored x extent of the half-spectrum, N/2+1.
func (f *Engine) NXH() int { return f.l.Nxh }

// FourierLen is the complex element count of one local spectral pencil
// C = [Mz2][Ny][Wc].
func (f *Engine) FourierLen() int { return f.l.CLen() }

// PhysicalLen is the real element count of one local physical pencil
// [My][Mz][Nx].
func (f *Engine) PhysicalLen() int { return f.l.My * f.l.Mz * f.n }

// Workers reports the worker-team size.
func (f *Engine) Workers() int { return f.team.Size() }

// Close releases the worker team, the stages and every pooled buffer
// back to the arena. The transform must not be used afterwards. Safe
// to call once per rank, in any order across ranks.
func (f *Engine) Close() {
	if f.closed {
		return
	}
	f.closed = true
	f.team.Close()
	for w := range f.byz {
		f.byz[w].Release()
		f.bx[w].Release()
	}
	if f.wire != nil {
		f.wire.Close()
		pool.PutComplex64(f.four32)
		pool.PutComplex64(f.mid32)
		f.four32, f.mid32 = nil, nil
	} else {
		f.row.Close()
	}
	if f.col != nil {
		f.col.Close()
		pool.PutComplex(f.mid)
	}
	pool.PutComplex(f.x)
	f.x, f.mid = nil, nil
}

// FourierToPhysical transforms four = C (complex) into phys =
// [My][Mz][Nx] (real), with 1/N³ normalization — y, z, x inverse
// order. four is consumed as scratch.
//
//psdns:hotpath
func (f *Engine) FourierToPhysical(phys []float64, four []complex128) {
	f.checkLen(phys, four)
	f.curFour, f.curPhys = four, phys
	f.fftPass(f.l.Mz2, f.invYBody)
	f.rowExchange(exchange.YZ, f.pair.YZ)
	if f.col == nil {
		f.fftPass(f.l.My, f.invZXBody)
	} else {
		f.fftPass(f.l.My, f.invZBody)
		f.col.Run(exchange.YZ, f.pair.YZ, f.mid, f.x)
		f.fftPass(f.l.My, f.invXBody)
	}
	f.curFour, f.curPhys = nil, nil
}

// PhysicalToFourier transforms phys = [My][Mz][Nx] (real) into four =
// C (complex), unnormalized — x, z, y forward order.
//
//psdns:hotpath
func (f *Engine) PhysicalToFourier(four []complex128, phys []float64) {
	f.checkLen(phys, four)
	f.curFour, f.curPhys = four, phys
	if f.col == nil {
		f.fftPass(f.l.My, f.fwdXZBody)
	} else {
		f.fftPass(f.l.My, f.fwdXBody)
		f.col.Run(exchange.ZY, f.pair.ZY, f.x, f.mid)
		f.fftPass(f.l.My, f.fwdZBody)
	}
	f.rowExchange(exchange.ZY, f.pair.ZY)
	f.fftPass(f.l.Mz2, f.fwdYBody)
	f.curFour, f.curPhys = nil, nil
}

// fftPass runs one FFT pass over units planes on the team, timed into
// phase.fft.
//
//psdns:hotpath
func (f *Engine) fftPass(units int, body func(w, lo, hi int)) {
	t := time.Now()
	f.team.ForWorkers(units, body)
	f.fftT.ObserveSince(t)
}

func (f *Engine) checkLen(phys []float64, four []complex128) {
	if len(four) != f.FourierLen() || len(phys) != f.PhysicalLen() {
		panic(fmt.Sprintf("pfft: transform wants four %d phys %d, got %d %d",
			f.FourierLen(), f.PhysicalLen(), len(four), len(phys)))
	}
}

// rowExchange runs the row stage under st: YZ moves the y-transformed
// C (f.curFour) into B, ZY moves B back into f.curFour. On the
// single-precision wire the source is narrowed first (timed as pack)
// and the destination widened after (timed as unpack). A column group
// with no in-band column (kb = 0, the same on every rank of the row
// stage) has nothing to move and skips the exchange.
//
//psdns:hotpath
func (f *Engine) rowExchange(d exchange.Dir, st exchange.Strategy) {
	mz2, my := f.l.Mz2, f.l.My
	switch {
	case f.kb == 0:
	case f.wire == nil && d == exchange.YZ:
		f.row.Run(d, st, f.curFour, f.mid)
	case f.wire == nil:
		f.row.Run(d, st, f.mid, f.curFour)
	case d == exchange.YZ:
		t := time.Now()
		f.team.ForWorkers(mz2, f.narrowFourBody)
		f.ph.Pack.ObserveSince(t)
		f.wire.Run(d, st, f.four32, f.mid32)
		t = time.Now()
		f.team.ForWorkers(my, f.widenMidBody)
		f.ph.Unpack.ObserveSince(t)
	default:
		t := time.Now()
		f.team.ForWorkers(my, f.narrowMidBody)
		f.ph.Pack.ObserveSince(t)
		f.wire.Run(d, st, f.mid32, f.four32)
		t = time.Now()
		f.team.ForWorkers(mz2, f.widenFourBody)
		f.ph.Unpack.ObserveSince(t)
	}
}

// runTrial executes direction d's exchanges under st on the trial
// pencil four, without FFT passes: exchange-only trials compare
// decompositions fairly because the per-rank FFT line count is
// decomposition-invariant. Collective over the grid's communicators.
func (f *Engine) runTrial(d exchange.Dir, st exchange.Strategy, four []complex128) {
	f.curFour = four
	switch {
	case f.col == nil:
		f.rowExchange(d, st)
	case d == exchange.YZ:
		f.rowExchange(d, st)
		f.col.Run(d, st, f.mid, f.x)
	default:
		f.col.Run(d, st, f.x, f.mid)
		f.rowExchange(d, st)
	}
	f.curFour = nil
}

// ExchangeYZ performs only the transpose-exchanges of FourierToPhysical
// on four, into the internal buffers, using the pinned strategy. This
// is the isolated exchange kernel the bench harness pins per strategy;
// the transform entry points go through the same path.
//
//psdns:hotpath
func (f *Engine) ExchangeYZ(four []complex128) {
	if len(four) != f.FourierLen() {
		panic(fmt.Sprintf("pfft: ExchangeYZ wants %d elements, got %d", f.FourierLen(), len(four)))
	}
	f.runTrial(exchange.YZ, f.pair.YZ, four)
}

// Strategy reports the pinned FourierToPhysical-side (y→z)
// transpose-exchange strategy (never exchange.Auto: autotuned plans
// report the winner).
func (f *Engine) Strategy() exchange.Strategy { return f.pair.YZ }

// StrategyZY reports the pinned PhysicalToFourier-side (z→y) strategy;
// it can differ from Strategy because the two directions stream
// mirrored access patterns and are tuned independently.
func (f *Engine) StrategyZY() exchange.Strategy { return f.pair.ZY }

// StrategyPair reports both pinned strategies as an exchange.Pair.
func (f *Engine) StrategyPair() exchange.Pair { return f.pair }

// Single reports whether the transform ships its exchanges through the
// single-precision wire pipeline.
func (f *Engine) Single() bool { return f.wire != nil }

// SetATSite labels the quantity the next bounded exchanges carry (see
// exchange.Stage.SetATSite). No-op on non-AT transforms.
func (f *Engine) SetATSite(site uint32) {
	if f.row != nil {
		f.row.SetATSite(site)
	}
}

// TakeStaleness drains the asynchrony-tolerant staleness window since
// the previous take (see exchange.Stage.TakeStaleness). All zeros on
// non-AT transforms.
func (f *Engine) TakeStaleness() (max int, sum, slabs, calls int64) {
	if f.row == nil {
		return 0, 0, 0, 0
	}
	return f.row.TakeStaleness()
}
