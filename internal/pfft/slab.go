package pfft

import (
	"fmt"
	"time"

	"repro/internal/cuda"
	"repro/internal/exchange"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/par"
	"repro/internal/pool"
	"repro/internal/transpose"
	"repro/internal/tuning"
)

// Granularity selects how much data each MPI all-to-all carries.
type Granularity int

const (
	// PerPencil starts one exchange per pencil as soon as the pencil
	// is ready on every device (paper configurations A and B).
	PerPencil Granularity = iota
	// PerSlab waits for every pencil and runs one exchange for the
	// whole slab (paper configuration C).
	PerSlab
)

// ParseGranularity maps a flag or config value ("pencil" or "slab") to
// a Granularity.
func ParseGranularity(s string) (Granularity, error) {
	switch s {
	case "pencil":
		return PerPencil, nil
	case "slab":
		return PerSlab, nil
	}
	return PerSlab, fmt.Errorf("pfft: unknown granularity %q (want pencil or slab)", s)
}

// Options configures the engine's pipeline. NewSlabRealStrategy and
// NewPencilReal pin NP 1, PerSlab and one device — the synchronous
// algorithm of Fig 2 — and NewAsyncSlabReal takes the options of the
// batched pipeline of Fig 4, the single-precision wire and the
// asynchrony-tolerant exchange included.
type Options struct {
	// NP is the number of pencils each slab is divided into (Fig 3):
	// plane groups, splitRange(N/P, NP) of the z-planes of the Fourier
	// slab and of the y-planes of the intermediate one, each complete
	// along the axes its passes transform. It must satisfy 1 ≤ NP ≤
	// N/2+1; groups past N/P planes are empty (launched, never
	// exchanged). Zero means 3, the Table 1 value.
	NP int
	// Granularity selects per-pencil (A/B) or per-slab (C) exchanges.
	Granularity Granularity
	// NGPU is the number of devices per MPI rank (Fig 5); each plane
	// group's planes are split across them. Zero means 1.
	NGPU int
	// Workers is the per-rank worker-team size (the paper's OpenMP
	// threads per rank): the batched FFT loops inside each device's
	// compute launches and the host-side unpack kernels are split
	// across the team. Zero means 1. Results are bitwise identical for
	// any team size.
	Workers int
	// SingleComm stages all-to-all payloads through complex64 buffers,
	// matching the paper's single-precision wire format (half the
	// bytes, ~1e-7 relative rounding per transform).
	SingleComm bool
	// Exchange selects the transpose-exchange strategy of both
	// directions: Fused and ChunkedFused gather each plane group
	// straight from every peer's slab (or, on the single-precision
	// wire, its narrowed copy) into the local destination layout (the
	// paper's zero-copy variant) through an mpi.ExchangePlan, and Auto
	// (the zero value) times both per direction at plan time through
	// NewAsyncSlabRealTuned — a strategy-only search on this engine
	// configuration, no cache — and pins the collectively-agreed
	// winners. AT runs the fused gather through bounded-staleness plans
	// (DoBounded) and must be selected explicitly — it changes the
	// answer, so the autotuner never picks it.
	Exchange exchange.Strategy
	// ATMaxStale bounds, in exchange epochs, how far behind a peer's
	// published slab may be when Exchange is AT. Zero keeps every
	// exchange effectively synchronous (peers must reach the current
	// epoch before the gather runs).
	ATMaxStale int
	// ATDeadline is how long an AT exchange waits for lagging peers to
	// reach the current epoch before accepting their latest published
	// slabs; ≤ 0 never waits past the hard staleness bound.
	ATDeadline time.Duration
}

// slabOptions are the slab's options: one plane group, one exchange
// per slab, one device.
func slabOptions(workers int) Options {
	return Options{NP: 1, Granularity: PerSlab, NGPU: 1, Workers: workers}
}

// withDefaults fills the zero-means-default fields: NP 3, one device,
// one worker.
func (o Options) withDefaults() Options {
	if o.NP == 0 {
		o.NP = 3
	}
	if o.NGPU == 0 {
		o.NGPU = 1
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	return o
}

// span is a half-open index range.
type span struct{ lo, hi int }

func (s span) width() int { return s.hi - s.lo }

// splitRange divides [0,total) into n near-equal contiguous spans.
func splitRange(total, n int) []span {
	per, rem := total/n, total%n
	out := make([]span, n)
	lo := 0
	for i := range out {
		w := per
		if i < rem {
			w++
		}
		out[i] = span{lo, lo + w}
		lo += w
	}
	return out
}

// gpuCtx is the per-device execution context: one compute stream and,
// where the wire packs, one transfer stream (§3.4: a single transfer
// stream keeps host memory traffic unidirectional), plus the plane
// passes whose per-worker plans serve the device's batched FFTs (the
// cufftPlanMany handles of §4.1). There are no device buffers: device
// memory is host memory on this backend, so every kernel works on the
// host slab in place (§4.2's zero-copy), and on the double-precision
// zero-copy wire, where peers read the slab itself, nothing is left to
// transfer.
type gpuCtx struct {
	dev      *cuda.Device
	transfer *cuda.Stream // nil when the wire packs nothing
	compute  *cuda.Stream
	// team splits the plane loops inside this device's compute kernels;
	// ps holds one plan set per worker (plans carry scratch and are not
	// concurrency-safe) at the current band.
	team *par.Team
	ps   Passes
}

// slabMetrics are the per-rank instrumentation handles of the engine:
// the disjoint wall sections of each transform (device pipeline, and
// the stages' exchange phase) and the bytes the pack kernels write out
// of the device pipeline (the only transfer left, and only where the
// wire packs: nothing is staged in).
type slabMetrics struct {
	pipeline *metrics.Histogram
	a2a      *metrics.Histogram
	d2h      *metrics.Counter
	kmax     *metrics.Gauge
}

// SlabReal is the transform engine: the DNS transform pair — real
// physical fields, conjugate-symmetric half-spectra (Nxh = N/2+1 in x)
// in Fourier space — run as the batched asynchronous pipeline of Fig 4
// over a Pr×Pc process grid. The slab decomposition is its one-column
// grid (Pc = 1), the solver's (it implements spectral.Transform there):
// the synchronous slab and the paper's basic GPU algorithm of Fig 2 are
// its np = 1, one-exchange-per-slab case (NewSlabRealStrategy), and
// NewAsyncSlabReal takes the pencil count, granularity and devices of
// the batched pipeline. NewPencilReal builds it on a Pr×Pc grid, the
// FFTK-style 2-D decomposition that lifts the slab's P ≤ N ceiling. Not
// safe for concurrent use.
//
// The engine is compiled once: construction turns each of its region
// passes into a flat op program — one prebuilt compute kernel, and
// where the wire packs a pack kernel and its events, per (plane group,
// device) cell — and a transform replays those programs through the
// streams. The per-call slabs reach the kernels through the four and
// phys fields, so the steady state builds no closure and allocates
// nothing.
type SlabReal struct {
	// comm is the row communicator (Pr ranks) the plane-group units
	// exchange over; col, on a grid with Pc > 1, is the column stage
	// over the Pc ranks of the column communicator, nil on one column.
	comm *mpi.Comm
	col  *exchange.Stage[complex128]
	// l is the rank's pencil geometry (Pc = 1: the slab's, array for
	// array), s the slab's on one column.
	l    *transpose.PencilLayout
	s    grid.Slab
	n    int
	np   int
	gran Granularity

	gpus []*gpuCtx
	// groups are the np plane groups of the local pencils (Fig 3's
	// pencils), splitRange(N/Pr, np) of the z-planes of four and the
	// y-planes of mid and x alike; a group past N/Pr planes is empty.
	// units are what one row exchange carries: the groups under
	// PerPencil, every plane under PerSlab.
	groups, units []span
	// lays[u] is the slab transpose over unit u's planes at the band
	// (transpose.SlabLayout.Range) with Nxh := Wc: its exchange kernels
	// and byte counts.
	lays []transpose.SlabLayout
	mid  []complex128 // B = [my][nz][wc], z complete
	// x is X = [my][mz][nxh], x complete, padded to PadXLen for the
	// column stage's publication. It has no storage of its own: for the
	// duration of one call it is the head of the caller's Fourier slab,
	// four[:PadXLen], as C and X are never live at once (bind). nil
	// between calls and on one column, where B is X.
	x []complex128
	// four32 and mid32 are the single-precision wire's copies of four
	// and mid (nil on the double-precision wire): a transposing cell
	// narrows its planes into one, the exchange lands in the other, and
	// the mirror region's cells widen their planes out of it.
	four32, mid32 []complex64
	// four and phys are the caller's Fourier and physical slabs for the
	// duration of one transform call (bind); the compiled kernels and the
	// exchange kernels address them through these fields.
	four []complex128
	phys []float64
	// wire holds the staging buffers and the row exchange's unit
	// stages, at the precision the exchange ships (Options.SingleComm).
	wire wire

	// team splits the exchange stages' pack, gather and unpack kernels
	// across workers; it is shared by every transposing region and
	// reused across steps.
	team *par.Team

	// The compiled regions by exchange direction: regT[d] runs in front
	// of d's row exchange and feeds it, regM[d] behind it. YZ: the y
	// inverse on z-plane groups of four, then the z inverse and c2r per
	// y-plane of mid. ZY: r2c and the z forward per y-plane of mid, then
	// the y forward on z-plane groups of four. With Pc > 1 the z and x
	// passes are apart, the column exchange between them: regM[YZ] and
	// regT[ZY] run the z lines of mid only, and regX[d] the x lines of
	// x's y-planes, behind the column exchange (YZ) or in front of it
	// (ZY).
	regT, regM, regX [2]region

	met    *slabMetrics
	closed bool

	// The pinned concrete strategies (never Auto), one per transpose
	// direction: the two stream mirrored access patterns, so the tuner
	// measures and pins them independently.
	pair exchange.Pair
}

// NewSlabRealStrategy builds the slab transform with an explicit
// transpose-exchange strategy. exchange.Auto times every concrete
// strategy per direction at the actual (N, P, workers) — the
// NewAsyncSlabRealTuned search over the default space, with no cache —
// and pins the collectively-agreed winners; a concrete strategy skips
// the trials and pins that strategy on every rank. Collective.
func NewSlabRealStrategy(comm *mpi.Comm, n, workers int, strat exchange.Strategy) *SlabReal {
	if strat == exchange.Auto {
		return NewAsyncSlabRealTuned(comm, n, slabOptions(workers), tuning.Config{})
	}
	return newSlabReal(comm, nil, n, slabOptions(workers), exchange.Both(strat))
}

// NewAsyncSlabReal constructs the batched pipeline of Fig 4 for an N³
// real transform over the ranks of comm.
func NewAsyncSlabReal(comm *mpi.Comm, n int, opt Options) *SlabReal {
	if opt.Exchange == exchange.Auto {
		return NewAsyncSlabRealTuned(comm, n, opt, tuning.Config{})
	}
	return newSlabReal(comm, nil, n, opt, exchange.Both(opt.Exchange))
}

// NewPencilReal builds the transform at the slab's options
// (np 1, one exchange per slab, one device) over a process grid whose
// row communicator commY has size Pr and column communicator commZ
// size Pc (the caller typically obtains them from Comm.CartGrid). At
// Pc = 1 it is the slab over commY, bit for bit. Both strategies of
// pair must be concrete: trial resolution needs a communicator spanning
// the whole grid, so tuned construction (and the choice of
// decomposition) is NewRealTuned's. Collective over both
// communicators: every rank must construct the transform at the same
// point in each sub-communicator's collective order.
func NewPencilReal(commY, commZ *mpi.Comm, n, workers int, pair exchange.Pair) *SlabReal {
	return newSlabReal(commY, commZ, n, slabOptions(workers), pair)
}

// newSlabReal is the one constructor: the program over the row
// communicator comm and the column communicator commZ (nil: one
// column). pair is pinned — both concrete, or both AT (with opt's
// bound) — and opt.Exchange is not read. pair and opt are identical on
// every rank, so the collective registration order stays uniform.
func newSlabReal(comm, commZ *mpi.Comm, n int, opt Options, pair exchange.Pair) *SlabReal {
	if n%2 != 0 {
		panic(fmt.Sprintf("pfft: N must be even, got %d", n))
	}
	if (pair.YZ == exchange.AT) != (pair.ZY == exchange.AT) || pair.YZ == exchange.Auto || pair.ZY == exchange.Auto {
		panic(fmt.Sprintf("pfft: the engine needs concrete strategies or AT in both directions, got %s", pair))
	}
	pc, zRank := 1, 0
	if commZ != nil {
		pc, zRank = commZ.Size(), commZ.Rank()
	}
	if pc > 1 && (pair.YZ == exchange.AT || opt.SingleComm) {
		panic("pfft: the asynchrony-tolerant exchange and the single-precision wire need one column (Pc = 1)")
	}
	opt = opt.withDefaults()
	nxh := n/2 + 1
	if opt.NP < 1 || opt.NP > nxh || opt.NP > n {
		panic(fmt.Sprintf("pfft: invalid pencil count %d for N=%d", opt.NP, n))
	}
	a := &SlabReal{
		comm: comm,
		n:    n,
		np:   opt.NP,
		gran: opt.Granularity,
		pair: pair,
	}
	if pc == 1 {
		a.s = grid.NewSlab(n, comm.Size(), comm.Rank())
	}
	l := transpose.NewPencilLayout(n, comm.Size(), pc, comm.Rank(), zRank)
	a.l, a.groups = l, splitRange(l.Mz2, opt.NP)
	a.units = a.groups
	if a.gran == PerSlab {
		a.units = []span{{0, l.Mz2}}
	}

	// Sub-communicators share the world registry, so metrics are
	// labelled with the grid-global rank yG·Pc+zG (the parent comm's
	// rank for CartGrid-derived communicators), not a sub-communicator
	// rank that would collide across groups.
	reg, rank := comm.Metrics(), comm.Rank()*pc+zRank
	a.met = &slabMetrics{
		pipeline: reg.HistogramRank("phase.pipeline", rank),
		a2a:      reg.HistogramRank("phase.a2a", rank),
		d2h:      reg.CounterRank("gpu.d2h.bytes", rank),
		kmax:     reg.GaugeRank("transform.kmax", rank),
	}
	a.team = par.NewTeam(opt.Workers)
	a.mid = pool.GetComplex(l.BLen())
	full := transpose.NewSlabLayout(l.Wc, n, l.Mz2, l.Pr)
	for _, us := range a.units {
		a.lays = append(a.lays, full.Range(us.lo, us.hi))
	}
	// The stages are registered unconditionally (registration is a cheap
	// collective and every rank must stay in the same collective order
	// regardless of the strategy each would pick). Under the asynchrony-
	// tolerant strategy they are bounded: publication is epoch-tagged
	// and gathers accept slabs up to ATMaxStale epochs old.
	var bound *exchange.Bound
	if pair.YZ == exchange.AT {
		bound = &exchange.Bound{MaxStale: opt.ATMaxStale, Deadline: opt.ATDeadline}
	}
	if opt.SingleComm {
		a.four32, a.mid32 = pool.GetComplex64(a.FourierLen()), pool.GetComplex64(a.FourierLen())
		a.wire = newWire[complex64](a, bound)
	} else {
		a.wire = newWire[complex128](a, bound)
	}
	if pc > 1 {
		// The column exchange: one stage for the whole pencil,
		// publishing the padded X forward and the (shorter, per-rank
		// varying) B inverse; PadXLen is identical across the column
		// group and divisible by Pc by construction.
		a.col = exchange.NewStage(commZ, a.team, a.met.a2a, l.PadXLen, nil, colKernels[complex128](l))
	}

	for g := 0; g < opt.NGPU; g++ {
		dev := cuda.NewDevice(g)
		dev.SetMetrics(reg, rank)
		// A stream's ring holds the most entries one region enqueues
		// on it, and Synchronize's marker: a compute op and its event
		// per plane group on the compute stream; a wait, a pack and its
		// event per group on the transfer stream.
		ctx := &gpuCtx{
			dev:     dev,
			compute: dev.NewStream(fmt.Sprintf("gpu%d/compute", g), 2*opt.NP+1),
			team:    par.NewTeam(opt.Workers),
			ps:      newPasses(n, l.Wc, l.Mz2, opt.Workers),
		}
		if a.Single() {
			ctx.transfer = dev.NewStream(fmt.Sprintf("gpu%d/transfer", g), 3*opt.NP+1)
		}
		a.gpus = append(a.gpus, ctx)
	}
	a.Truncate(-1)
	reg.GaugeRank("exchange.strategy", rank).Set(pair.YZ.Code())
	reg.GaugeRank("exchange.strategy.zy", rank).Set(pair.ZY.Code())
	return a
}

// Truncate band-limits the transform pair to the modes with every
// |k_i| ≤ kmax (kmax < 0 or ≥ N/2: all of them, the state at
// construction) by recompiling the op programs for that band — see
// spectral.Transform.Truncate for the contract and compile for what
// the kernels skip. Plan time; every rank truncates to the same band
// between the same transforms.
func (a *SlabReal) Truncate(kmax int) {
	if a.closed {
		return
	}
	band := grid.NewBand(a.n, kmax)
	a.compile(band)
	a.met.kmax.Set(float64(band.Kmax))
}

// Strategy reports the pinned FourierToPhysical-side (y→z)
// transpose-exchange strategy (never exchange.Auto: autotuned engines
// report the winner).
func (a *SlabReal) Strategy() exchange.Strategy { return a.pair.YZ }

// StrategyZY reports the pinned PhysicalToFourier-side (z→y) strategy;
// it can differ from Strategy because the two directions stream
// mirrored access patterns and are tuned independently.
func (a *SlabReal) StrategyZY() exchange.Strategy { return a.pair.ZY }

// StrategyPair reports both pinned strategies as an exchange.Pair.
func (a *SlabReal) StrategyPair() exchange.Pair { return a.pair }

// strategy is the pinned strategy of direction d.
func (a *SlabReal) strategy(d exchange.Dir) exchange.Strategy {
	if d == exchange.YZ {
		return a.pair.YZ
	}
	return a.pair.ZY
}

// Decomp reports the decomposition: the slab on one column, the Pr×Pc
// grid otherwise.
func (a *SlabReal) Decomp() tuning.Decomp {
	if a.col != nil {
		return tuning.Pencil(a.l.Pr, a.l.Pc)
	}
	return tuning.DecompSlab
}

// Close releases the device worker goroutines, the worker teams, the
// FFT plans and every arena-backed buffer: B and the single-precision
// wire's slabs (X is the caller's, see FourierLen). Idempotent.
func (a *SlabReal) Close() {
	if a.closed {
		return
	}
	a.closed = true
	for _, g := range a.gpus {
		g.dev.Close()
		g.team.Close()
		g.ps.release()
	}
	a.team.Close()
	a.wire.close()
	if a.col != nil {
		a.col.Close()
	}
	pool.PutComplex(a.mid)
	pool.PutComplex64(a.four32)
	pool.PutComplex64(a.mid32)
	a.mid, a.four32, a.mid32 = nil, nil, nil
}

// Workers reports the per-rank worker-team size.
func (a *SlabReal) Workers() int { return a.team.Size() }

// Slab reports the slab geometry. A Pr×Pc grid with Pc > 1 has none, so
// no solver is built on one: it panics there.
func (a *SlabReal) Slab() grid.Slab {
	a.needSlab()
	return a.s
}

// NXH is the stored x extent of the half-spectrum; it panics on a grid
// with Pc > 1, as Slab does.
func (a *SlabReal) NXH() int {
	a.needSlab()
	return a.l.Nxh
}

func (a *SlabReal) needSlab() {
	if a.col != nil {
		panic(fmt.Sprintf("pfft: the transform runs on a %dx%d pencil grid, not a slab: the solver needs a one-column transform", a.l.Pr, a.l.Pc))
	}
}

// FourierLen is the length of the Fourier slab a caller allocates, as
// FFTW-MPI's alloc_local: the local Fourier pencil C = [mz2][ny][wc]
// (the slab's [mz][ny][nxh] on one column, where that is all it is). On
// a grid with Pc > 1 the slab also carries X during each call, so it is
// max(CLen, PadXLen): on a rank whose x share is narrower than Nxh/Pc, C
// is followed by a tail that holds no mode, which the inverse never
// reads and the forward leaves +0.
func (a *SlabReal) FourierLen() int {
	if a.col != nil {
		return max(a.l.CLen(), a.l.PadXLen)
	}
	return a.l.CLen()
}

// PhysicalLen is the real element count of the local physical pencil
// [my][mz][nx].
func (a *SlabReal) PhysicalLen() int { return a.l.My * a.l.Mz * a.n }

// Single reports whether the exchanges ship the single-precision wire.
// The transposing cells carry a pack op (packOp) exactly there, where
// it narrows; on the double-precision wire every unit publishes its
// planes of the slab itself.
func (a *SlabReal) Single() bool { return a.four32 != nil }

// NP reports the pencil count per slab.
func (a *SlabReal) NP() int { return a.np }

// subRange returns device g's share of a plane group (Fig 5 split).
func subRange(xs span, g, ngpu int) span {
	subs := splitRange(xs.width(), ngpu)
	return span{xs.lo + subs[g].lo, xs.lo + subs[g].hi}
}

// cell is one (plane group, device) entry of a region's op program.
// Every cell is launched, an empty share of a group included, so the
// launch and event order of Fig 4 depends on neither the geometry nor
// the band. Only a transposing region's cells carry events: computed
// orders the pack behind the compute across the device's streams or,
// where nothing packs, the unit's exchange behind the compute; packed
// orders the per-pencil exchange behind the pack.
type cell struct {
	compute, pack    cuda.Op
	computed, packed *cuda.Event
}

// region is one compiled pass of Fig 4: np rows of one cell per device.
// A transposing region feeds direction dir's exchange: packs says its
// cells carry the wire's pack op, units that its unit exchanges are
// started from inside the pipeline (PerPencil).
type region struct {
	cells []cell
	dir   exchange.Dir
	packs bool
	units bool
}

// compile builds the op programs for band: kb = band.Width(XLo, XLo+Wc)
// is the width of every batch and of every row the row exchanges move.
// Every plan the kernels run is built here, one per worker and device
// (the previous band's are released), so no plan construction is left
// in the timed regions.
//
// A plane group is a valid Fig 3 pencil of each pass it runs: z-planes
// of four are complete in y, y-planes of mid complete in z and, on one
// column, in x, where the z and x passes of a y-plane run back to back
// while it is in cache. So every batch runs the band's full width kb of
// in-band columns: the cells run the bodies of Passes over their share
// of a group. The band reaches every pass (see Passes) and every row
// exchange through the units' layouts: each pack and gather moves the
// kb columns of the in-band kz rows, the YZ gathers storing +0 over the
// same columns of the out-of-band rows of mid, which the z lines read.
// The column exchange moves whole pencils; the x lines never read the
// bins past the band. On the single-precision wire the mirror region's
// cells widen their planes before their pass.
func (a *SlabReal) compile(band grid.Band) {
	l := a.l
	for _, ctx := range a.gpus {
		ctx.ps.SetBand(band, l.XLo, l.YRank*l.Mz2, l.Mz)
	}
	kb := a.gpus[0].ps.KB
	for u := range a.lays {
		a.lays[u].SetBand(kb, band)
	}
	a.regT[exchange.YZ] = a.region(exchange.YZ, true, func(ps *Passes, w, lo, hi int) { ps.InvY(w, a.four, lo, hi) })
	a.regM[exchange.ZY] = a.region(exchange.ZY, false, func(ps *Passes, w, lo, hi int) {
		if a.four32 != nil {
			ps.WidenC(a.four, a.four32, lo, hi)
		}
		ps.FwdY(w, a.four, lo, hi)
	})
	if a.col == nil {
		a.regM[exchange.YZ] = a.region(exchange.YZ, false, func(ps *Passes, w, lo, hi int) {
			if a.mid32 != nil {
				ps.WidenB(a.mid, a.mid32, lo, hi)
			}
			ps.InvZX(w, a.phys, a.mid, lo, hi)
		})
		a.regT[exchange.ZY] = a.region(exchange.ZY, true, func(ps *Passes, w, lo, hi int) { ps.FwdXZ(w, a.mid, a.phys, lo, hi) })
		return
	}
	a.regM[exchange.YZ] = a.region(exchange.YZ, false, func(ps *Passes, w, lo, hi int) { ps.InvZ(w, a.mid, lo, hi) })
	a.regX[exchange.YZ] = a.region(exchange.YZ, false, func(ps *Passes, w, lo, hi int) { ps.InvX(w, a.phys, a.x, lo, hi) })
	a.regX[exchange.ZY] = a.region(exchange.ZY, false, func(ps *Passes, w, lo, hi int) { ps.FwdX(w, a.x, a.phys, lo, hi) })
	a.regT[exchange.ZY] = a.region(exchange.ZY, true, func(ps *Passes, w, lo, hi int) { ps.FwdZ(w, a.mid, lo, hi) })
}

// region compiles one pass: a cell per (group, device) whose kernel
// runs pass over the device's share of the group's planes, split
// across the device's team. A transposing region's cells also carry the
// pack op of their planes where the wire packs (packOp), and the events
// of their Fig 4 edges.
func (a *SlabReal) region(d exchange.Dir, transposing bool, pass func(ps *Passes, w, lo, hi int)) region {
	ngpu := len(a.gpus)
	r := region{cells: make([]cell, a.np*ngpu), dir: d}
	if transposing {
		r.packs, r.units = a.Single(), a.gran == PerPencil
	}
	for ip, gs := range a.groups {
		u := ip
		if a.gran == PerSlab {
			u = 0
		}
		for g, ctx := range a.gpus {
			c, sp, ps, team := &r.cells[ip*ngpu+g], subRange(gs, g, ngpu), &ctx.ps, ctx.team
			body := func(w, lo, hi int) { pass(ps, w, sp.lo+lo, sp.lo+hi) }
			c.compute = cuda.Op{Kind: "fft-planes", Run: func() { team.ForWorkers(sp.width(), body) }}
			if r.packs || r.units {
				c.computed = cuda.NewEvent()
			}
			if r.packs {
				c.pack = a.packOp(d, u, sp, ps)
				c.packed = cuda.NewEvent()
			}
		}
	}
	return r
}

// packOp is the pack op of the cell running planes sp of unit u in
// direction d's transposing region on the single-precision wire — the
// fused pack+D2H of §3.4 as the single zero-copy kernel of §4.2: it
// narrows the planes into four32 (YZ) or mid32 (ZY), what the unit
// publishes. Bytes is what reaches the wire, the band's part of the
// planes. A cell with no in-band row writes nothing, but is still
// launched, so the Fig 4 order does not depend on the band.
//
//psdns:hotpath
func (a *SlabReal) packOp(d exchange.Dir, u int, sp span, ps *Passes) cuda.Op {
	cl := a.lays[u].Range(sp.lo, sp.hi)
	return cuda.Op{Kind: "pack", Bytes: 8 * int64(cl.PackElems(a.comm.Rank(), d == exchange.YZ)), Run: func() {
		if d == exchange.YZ {
			ps.NarrowC(a.four32, a.four, sp.lo, sp.hi)
		} else {
			ps.NarrowB(a.mid32, a.mid, sp.lo, sp.hi)
		}
	}}
}

// bind points the compiled kernels and the exchanges at the caller's
// slabs for one call, and bind(nil, nil) lets go of them after it. On a
// grid with Pc > 1, X is four[:PadXLen]: each direction is done with one
// of C and X before it writes the other, and the exit barrier of the
// exchange between them orders that across ranks. The inverse last reads
// C in the row exchange's gathers, and writes X only in the column
// exchange behind that exchange's exit barrier; the forward last reads X
// in the column exchange's gathers, and the row exchange writes C only
// behind the column exchange's exit barrier.
//
//psdns:hotpath
func (a *SlabReal) bind(four []complex128, phys []float64) {
	a.four, a.phys, a.x = four, phys, nil
	if a.col != nil && four != nil {
		a.x = four[:a.l.PadXLen]
	}
}

// FourierToPhysical runs the Fig 4 pipeline: the y region with its
// exchange fused in, then the z+x region. four is consumed.
//
//psdns:hotpath
func (a *SlabReal) FourierToPhysical(phys []float64, four []complex128) {
	if len(four) != a.FourierLen() || len(phys) != a.PhysicalLen() {
		panic(fmt.Sprintf("pfft: F2P wants %d/%d, got %d/%d",
			a.FourierLen(), a.PhysicalLen(), len(four), len(phys)))
	}
	a.bind(four, phys)
	a.transform(exchange.YZ)
	a.bind(nil, nil)
}

// PhysicalToFourier runs the reverse pipeline: the x+z (r2c) region
// with the reverse exchange fused in, then the y region. phys is left
// untouched.
//
//psdns:hotpath
func (a *SlabReal) PhysicalToFourier(four []complex128, phys []float64) {
	if len(four) != a.FourierLen() || len(phys) != a.PhysicalLen() {
		panic(fmt.Sprintf("pfft: P2F wants %d/%d, got %d/%d",
			a.FourierLen(), a.PhysicalLen(), len(four), len(phys)))
	}
	a.bind(four, phys)
	a.transform(exchange.ZY)
	a.bind(nil, nil)
}

// transform is one direction of Fig 4: the dashed transposing region,
// its row exchange, and the region behind it. Unit u of the exchange is
// plane group u: under PerPencil it starts from inside the pipeline as
// soon as the group is ready on every device, overlapping the later
// groups' compute. Every strategy runs a unit through the unit's
// exchange.Stage: it publishes the group's planes and every peer
// gathers them in place into its destination slab — straight from the
// slab on the double-precision wire, where the region packs nothing,
// from the planes the pack narrowed on the f32 wire. Under PerSlab the
// one exchange follows the region. With Pc > 1 the x region and the
// column exchange over the whole pencil follow the inverse and precede
// the forward, in X, the head of four (bind); the forward stores +0
// over four past C once the column exchange is done with X.
//
//psdns:hotpath
func (a *SlabReal) transform(d exchange.Dir) {
	if a.col != nil && d == exchange.ZY {
		a.pipeline(&a.regX[d])
		a.column(d, a.pair.ZY)
		// X is dead: what of it lies past C holds no mode.
		clear(a.four[a.l.CLen():])
	}
	a.pipeline(&a.regT[d])
	if !a.regT[d].units {
		a.exchange(d, a.strategy(d))
	}
	a.pipeline(&a.regM[d])
	if a.col != nil && d == exchange.YZ {
		a.column(d, a.pair.YZ)
		a.pipeline(&a.regX[d])
	}
}

// column runs direction d's column exchange under st over the whole
// pencil: YZ moves the z-complete B into the x-complete X, ZY moves X
// into B. Collective over the column communicator.
//
//psdns:hotpath
func (a *SlabReal) column(d exchange.Dir, st exchange.Strategy) {
	if d == exchange.YZ {
		a.col.Run(d, st, a.mid, a.x)
	} else {
		a.col.Run(d, st, a.x, a.mid)
	}
}

// pipeline replays a region's op program with the Fig 4 launch order:
// the pack of the previous group first (prioritizing copies out of the
// device so exchanges can start early), then the compute of the
// current group, with an event ordering each pack behind its compute
// across the two streams. In a region with units, unit ip's exchange is
// started from the host once group ip is ready on every device — two
// groups behind the launch frontier, the (ip−2) rule of Fig 4. Time an
// exchange spends there is the exchange stage's (phase.a2a), not the
// pipeline's.
//
//psdns:hotpath
func (a *SlabReal) pipeline(r *region) {
	t0 := time.Now()
	var gathering time.Duration
	ngpu := len(a.gpus)
	for ip := 0; ip < a.np; ip++ {
		if ip > 0 {
			a.launchPacks(r, ip-1)
		}
		for g, ctx := range a.gpus {
			c := &r.cells[ip*ngpu+g]
			ctx.compute.Enqueue(&c.compute)
			if c.computed != nil {
				ctx.compute.RecordEvent(c.computed)
			}
		}
		if r.units && ip >= 2 {
			gathering += a.readyUnit(r, ip-2)
		}
	}
	a.launchPacks(r, a.np-1)
	for ip := max(0, a.np-2); r.units && ip < a.np; ip++ {
		gathering += a.readyUnit(r, ip)
	}
	// A region ends when every stream it used has drained.
	for _, g := range a.gpus {
		if r.packs {
			g.transfer.Synchronize()
		}
		g.compute.Synchronize()
	}
	if a.met.pipeline.Enabled() {
		a.met.pipeline.Observe((time.Since(t0) - gathering).Seconds())
	}
}

// launchPacks enqueues group ip's pack kernels on the transfer
// streams, each behind its compute; the packed event is recorded only
// when the host will wait on it.
//
//psdns:hotpath
func (a *SlabReal) launchPacks(r *region, ip int) {
	if !r.packs {
		return
	}
	for g, ctx := range a.gpus {
		c := &r.cells[ip*len(a.gpus)+g]
		ctx.transfer.Wait(c.computed)
		ctx.transfer.Enqueue(&c.pack)
		a.met.d2h.Add(c.pack.Bytes)
		if r.units {
			ctx.transfer.RecordEvent(c.packed)
		}
	}
}

// readyUnit waits for group ip's last op on every device — its pack,
// or its compute where nothing packs — and runs unit ip's exchange,
// reporting the time it took.
//
//psdns:hotpath
func (a *SlabReal) readyUnit(r *region, ip int) time.Duration {
	for g := range a.gpus {
		c := &r.cells[ip*len(a.gpus)+g]
		if r.packs {
			c.packed.Synchronize()
		} else {
			c.computed.Synchronize()
		}
	}
	t0 := time.Now()
	a.startUnit(r.dir, a.strategy(r.dir), ip)
	return time.Since(t0)
}

// startUnit runs unit u's exchange under st to completion through the
// unit's stage. An empty unit (a group past N/Pr planes) and a column
// group with no in-band column (kb = 0, Pc > 1) have nothing to move,
// on every rank of the row communicator alike, and are skipped.
// Collective.
//
//psdns:hotpath
func (a *SlabReal) startUnit(d exchange.Dir, st exchange.Strategy, u int) {
	if a.units[u].width() > 0 && a.lays[u].KB > 0 {
		a.wire.run(d, st, u)
	}
}

// exchange runs direction d's exchange under st outside the pipeline,
// every unit in turn: the one unit behind a PerSlab region and the
// tuner's whole trial body (buffer contents are irrelevant to timing).
// Collective.
//
//psdns:hotpath
func (a *SlabReal) exchange(d exchange.Dir, st exchange.Strategy) {
	for u := range a.units {
		a.startUnit(d, st, u)
	}
}

// runTrial runs direction d's exchanges under st on the trial slab
// four, in the transform's order and without FFT passes: the tuner's
// trial body (buffer contents are irrelevant to the timing, and the
// per-rank FFT work is the same on every decomposition). Collective.
func (a *SlabReal) runTrial(d exchange.Dir, st exchange.Strategy, four []complex128) {
	a.bind(four, nil)
	if a.col != nil && d == exchange.ZY {
		a.column(d, st)
	}
	a.exchange(d, st)
	if a.col != nil && d == exchange.YZ {
		a.column(d, st)
	}
	a.bind(nil, nil)
}

// ExchangeYZ performs only the transpose-exchanges of FourierToPhysical
// on four under the pinned strategy — into B, and on a grid with Pc > 1
// on into X, the head of four: the isolated exchange kernel the bench
// harness times per strategy. Collective.
//
//psdns:hotpath
func (a *SlabReal) ExchangeYZ(four []complex128) {
	if len(four) != a.FourierLen() {
		panic(fmt.Sprintf("pfft: ExchangeYZ wants %d elements, got %d", a.FourierLen(), len(four)))
	}
	a.runTrial(exchange.YZ, a.pair.YZ, four)
}

// SetATSite labels the quantity the next bounded exchanges carry (see
// exchange.Stage.SetATSite): callers interleaving several fields or
// stages through one engine set a collectively-consistent site index
// before each transform call, so accepted stale slabs are always the
// same quantity from whole steps earlier. No-op on non-AT engines.
func (a *SlabReal) SetATSite(site uint32) { a.wire.setSite(site) }

// TakeStaleness drains the asynchrony-tolerant staleness window across
// every exchange stage since the previous take: worst accepted slab
// age (in same-site cycles), summed age, stale slab count and bounded-
// exchange count. All zeros on non-AT engines.
func (a *SlabReal) TakeStaleness() (max int, sum, slabs, calls int64) {
	return a.wire.takeStaleness()
}
