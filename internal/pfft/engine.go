package pfft

import (
	"fmt"
	"time"

	"repro/internal/exchange"
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
// — on a Pr×Pc pencil grid with Pc > 1: the 2-D decomposition that
// lifts the slab's P ≤ N ceiling. The one-column grid (Pc = 1) is the
// slab, SlabReal's.
//
// Rank (yG, zG) owns the physical pencil [My][Mz][Nx] and the spectral
// pencil C = [Mz2][Ny][Wc]; x is the fastest axis of every layout (see
// transpose.PencilLayout), so transposes move whole x-rows and the y
// and z FFT passes run in plane form. The per-axis order is forward x
// (r2c), z, y and inverse y, z, x on every grid, and fft.Batch
// evaluates one expression tree per output element whatever the
// layout, so every valid Pr×Pc — and the slab — produces
// bitwise-identical results for any team size and any concrete
// strategy.
//
// A transform is FFT passes around two transpose-exchange stages, each
// an exchange.Stage over its own communicator:
//
//   - the row stage (commY, Pr ranks) trades the y split of the
//     z-complete B = [My][Nz][Wc] for the z re-split of C. It is the
//     slab transpose with Nxh := Wc;
//   - the column stage (commZ, Pc ranks) trades the z split of the
//     x-complete X = [My][Mz][Nxh] for the x split of B.
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
	// ps holds the per-worker plans and the band the passes transform
	// and the row stage moves (Truncate; full at construction): ps.KB of
	// this rank's Wc columns hold a kx inside it, ps.ZIn marks C's
	// z-planes whose kz is, [ps.GapLo, ps.GapHi) are the ky (and kz)
	// storage rows that are not. Its Y plans run the y lines of a C
	// z-plane and the z lines of a B y-plane, its X plans the Mz
	// half-spectrum ↔ real x lines of a y-plane. rl is the row stage's
	// layout, which carries the same band to its kernels.
	ps   Passes
	rl   transpose.SlabLayout
	kmax *metrics.Gauge // transform.kmax

	x   []complex128 // X, padded to PadXLen for publication
	mid []complex128 // B
	row *exchange.Stage[complex128]
	col *exchange.Stage[complex128]

	// The pinned concrete strategies (never Auto), one per transpose
	// direction: the two stream mirrored access patterns, so the tuner
	// measures and pins them independently.
	pair   exchange.Pair
	fftT   *metrics.Histogram
	closed bool

	// Staging fields for the precomputed worker bodies: the transform
	// entry points publish the current operand slices here so the team
	// bodies (built once in the constructor) reference them without a
	// per-call closure allocation.
	curFour []complex128
	curPhys []float64

	invYBody, fwdYBody func(w, lo, hi int) // over iz planes of C
	invZBody, fwdZBody func(w, lo, hi int) // over iy planes of B
	invXBody, fwdXBody func(w, lo, hi int) // over iy planes of X
}

// NewPencilReal builds the transform over a process grid whose column
// communicator commY has size Pr and row communicator commZ size Pc > 1
// (the caller typically obtains them from Comm.CartGrid). Both
// strategies of pair must be concrete: trial resolution needs a
// communicator spanning the whole grid, so tuned construction (and the
// choice of decomposition) is NewRealTuned's. Collective over both
// communicators: every rank must construct the transform at the same
// point in each sub-communicator's collective order.
func NewPencilReal(commY, commZ *mpi.Comm, n, workers int, pair exchange.Pair) *Engine {
	return newEngine(commY, commZ, n, workers, pair)
}

// newEngine builds the engine with pair pinned, identical on every
// rank, so the collective registration order stays uniform.
func newEngine(commY, commZ *mpi.Comm, n, workers int, pair exchange.Pair) *Engine {
	pc, zRank := commZ.Size(), commZ.Rank()
	if pc == 1 {
		panic("pfft: a one-column grid (Pc = 1) is the slab: build it with NewSlabReal, NewSlabRealStrategy or NewRealTuned")
	}
	for _, st := range [2]exchange.Strategy{pair.YZ, pair.ZY} {
		switch st {
		case exchange.AT:
			panic("pfft: the asynchrony-tolerant exchange needs the slab (Pc = 1): use NewSlabRealAT")
		case exchange.Auto:
			panic("pfft: the engine needs concrete strategies; tune with NewRealTuned")
		}
	}
	l := transpose.NewPencilLayout(n, commY.Size(), pc, commY.Rank(), zRank)
	// Sub-communicators share the world registry, so metrics are
	// labelled with the grid-global rank yG·Pc+zG (the parent comm's
	// rank for CartGrid-derived communicators), not the per-group
	// sub-communicator rank that would collide across groups.
	reg, rank := commY.Metrics(), commY.Rank()*pc+zRank
	ph := exchange.NewPhases(reg, rank)
	f := &Engine{
		l:    l,
		n:    n,
		team: par.NewTeam(workers),
		x:    pool.GetComplex(l.PadXLen),
		mid:  pool.GetComplex(l.BLen()),
		fftT: reg.HistogramRank("phase.fft", rank),
		pair: pair,
		kmax: reg.GaugeRank("transform.kmax", rank),
		ps:   newPasses(n, l.Wc, l.Mz2, workers),
		// The row stage is the slab transpose of [Mz2][Ny][Wc].
		rl: transpose.NewSlabLayout(l.Wc, n, l.Mz2, l.Pr),
	}
	// A stage's pack and recv blocks exist only when a pinned direction
	// is Staged, the only strategy that touches them.
	rl := &f.rl
	rowBlocks, colBlocks := 0, 0
	if pair.YZ == exchange.Staged || pair.ZY == exchange.Staged {
		rowBlocks, colBlocks = rl.Total, pc*l.BlockC
	}
	f.row = exchange.NewStage(commY, f.team, ph, rowBlocks, rl.Total, nil, exchange.SlabKernels[complex128](rl, commY.Rank()))
	// The column stage publishes the padded X forward and the (shorter,
	// per-rank varying) B inverse; PadXLen is identical across the
	// column group and divisible by Pc by construction.
	f.col = exchange.NewStage(commZ, f.team, ph, colBlocks, l.PadXLen, nil, colKernels[complex128](l))
	f.Truncate(-1)
	f.buildBodies()
	reg.GaugeRank("exchange.strategy", rank).Set(pair.YZ.Code())
	reg.GaugeRank("exchange.strategy.zy", rank).Set(pair.ZY.Code())
	return f
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
	l, ps := f.l, &f.ps
	cp := f.n * l.Wc               // one z-plane of C, one y-plane of B
	xp, pp := l.Mz*l.Nxh, l.Mz*f.n // one y-plane of X, of the physical pencil
	f.invYBody = func(w, lo, hi int) { ps.InvY(w, f.curFour, lo, hi) }
	f.fwdYBody = func(w, lo, hi int) { ps.FwdY(w, f.curFour, lo, hi) }
	f.invZBody = func(w, lo, hi int) {
		for iy := lo; iy < hi; iy++ {
			plane := f.mid[iy*cp : (iy+1)*cp]
			ps.Y[w].Inverse(plane, plane)
		}
	}
	f.fwdZBody = func(w, lo, hi int) {
		for iy := lo; iy < hi; iy++ {
			plane := f.mid[iy*cp : (iy+1)*cp]
			ps.Y[w].Forward(plane, plane)
		}
	}
	f.invXBody = func(w, lo, hi int) {
		for iy := lo; iy < hi; iy++ {
			ps.X[w].Inverse(f.curPhys[iy*pp:(iy+1)*pp], f.x[iy*xp:(iy+1)*xp])
		}
	}
	f.fwdXBody = func(w, lo, hi int) {
		for iy := lo; iy < hi; iy++ {
			ps.X[w].Forward(f.x[iy*xp:(iy+1)*xp], f.curPhys[iy*pp:(iy+1)*pp])
		}
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
// its gathers and packs, under every strategy — stores the zeros the
// inverse's z lines read in B on the receiving side, and charges
// exchange.bytes what it moves; a column group with kb = 0 skips it.
// The column exchange still moves whole pencils; the x bins past the
// band are never read. Plan time, not hot path; every rank of the grid
// must truncate to the same band between the same transforms.
func (f *Engine) Truncate(kmax int) {
	if f.closed {
		return
	}
	l, band := f.l, grid.NewBand(f.n, kmax)
	f.ps.SetBand(band, l.XLo, l.YRank*l.Mz2, l.Mz)
	f.rl.SetBand(f.ps.KB, band)
	f.kmax.Set(float64(band.Kmax))
}

// Layout reports the grid geometry.
func (f *Engine) Layout() *transpose.PencilLayout { return f.l }

// Decomp reports the decomposition: the Pr×Pc grid.
func (f *Engine) Decomp() tuning.Decomp { return tuning.Pencil(f.l.Pr, f.l.Pc) }

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
	f.ps.release()
	f.row.Close()
	f.col.Close()
	pool.PutComplex(f.mid)
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
	f.fftPass(f.l.My, f.invZBody)
	f.col.Run(exchange.YZ, f.pair.YZ, f.mid, f.x)
	f.fftPass(f.l.My, f.invXBody)
	f.curFour, f.curPhys = nil, nil
}

// PhysicalToFourier transforms phys = [My][Mz][Nx] (real) into four =
// C (complex), unnormalized — x, z, y forward order.
//
//psdns:hotpath
func (f *Engine) PhysicalToFourier(four []complex128, phys []float64) {
	f.checkLen(phys, four)
	f.curFour, f.curPhys = four, phys
	f.fftPass(f.l.My, f.fwdXBody)
	f.col.Run(exchange.ZY, f.pair.ZY, f.x, f.mid)
	f.fftPass(f.l.My, f.fwdZBody)
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
// C (f.curFour) into B, ZY moves B back into f.curFour. A column group
// with no in-band column (kb = 0, the same on every rank of the row
// stage) has nothing to move and skips the exchange.
//
//psdns:hotpath
func (f *Engine) rowExchange(d exchange.Dir, st exchange.Strategy) {
	switch {
	case f.ps.KB == 0:
	case d == exchange.YZ:
		f.row.Run(d, st, f.curFour, f.mid)
	default:
		f.row.Run(d, st, f.mid, f.curFour)
	}
}

// runTrial executes direction d's exchanges under st on the trial
// pencil four, without FFT passes: exchange-only trials compare
// decompositions fairly because the per-rank FFT line count is
// decomposition-invariant. Collective over the grid's communicators.
func (f *Engine) runTrial(d exchange.Dir, st exchange.Strategy, four []complex128) {
	f.curFour = four
	if d == exchange.YZ {
		f.rowExchange(d, st)
		f.col.Run(d, st, f.mid, f.x)
	} else {
		f.col.Run(d, st, f.x, f.mid)
		f.rowExchange(d, st)
	}
	f.curFour = nil
}

// Strategy reports the pinned FourierToPhysical-side (y→z)
// transpose-exchange strategy.
func (f *Engine) Strategy() exchange.Strategy { return f.pair.YZ }

// StrategyZY reports the pinned PhysicalToFourier-side (z→y) strategy;
// it can differ from Strategy because the two directions stream
// mirrored access patterns and are tuned independently.
func (f *Engine) StrategyZY() exchange.Strategy { return f.pair.ZY }

// StrategyPair reports both pinned strategies as an exchange.Pair.
func (f *Engine) StrategyPair() exchange.Pair { return f.pair }
