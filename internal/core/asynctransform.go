package core

import (
	"fmt"
	"time"

	"repro/internal/cuda"
	"repro/internal/exchange"
	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/par"
	"repro/internal/pfft"
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
	return PerSlab, fmt.Errorf("core: unknown granularity %q (want pencil or slab)", s)
}

// Options configures the asynchronous pipeline.
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
	// Metrics selects the registry the pipeline records phase timings
	// and transfer bytes into. Nil means the communicator's registry
	// (the one Run/TryRun installed), so instrumentation follows the
	// world by default.
	Metrics *metrics.Registry
	// Exchange selects the transpose-exchange strategy: Staged packs
	// each exchange unit into staged blocks, exchanges the blocks and
	// unpacks them (the paper's staged variant), Fused and ChunkedFused
	// gather each plane group straight from every peer's slab (or, on
	// the single-precision wire, its narrowed copy) into the local
	// destination layout (the zero-copy variant) — every one through
	// an mpi.ExchangePlan — and Auto (the zero value) times all three at plan time
	// through NewAsyncSlabRealTuned — a strategy-only search on this
	// engine configuration, no cache — and pins the collectively-agreed
	// winner. AT runs the fused gather through bounded-staleness plans
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
// stream keeps host memory traffic unidirectional), plus the plan cache
// serving the device's batched FFTs (the cufftPlanMany handles of
// §4.1). There are no device buffers: device memory is host memory on
// this backend, so every kernel works on the host slab in place (§4.2's
// zero-copy), and on the double-precision zero-copy wire, where peers
// read the slab itself, nothing is left to transfer.
type gpuCtx struct {
	dev      *cuda.Device
	transfer *cuda.Stream // nil when the wire packs nothing
	compute  *cuda.Stream
	// team splits the plane loops inside this device's compute kernels;
	// plans[w] is worker w's plan cache (plans carry scratch and are not
	// concurrency-safe, so each worker owns a full set), and ps the
	// plane passes over the current band's plans from them.
	team  *par.Team
	plans []*fft.BatchCache
	ps    pfft.Passes
}

// asyncMetrics are the per-rank instrumentation handles of the
// asynchronous engine: the disjoint wall sections of each transposing
// transform (device pipeline, and the unit stages' pack, exchange and
// unpack phases) and the bytes the pack kernels write out of the
// device pipeline (the only transfer left, and only where the wire
// packs: nothing is staged in).
type asyncMetrics struct {
	pipeline *metrics.Histogram
	ph       exchange.Phases
	d2h      *metrics.Counter
	strategy *metrics.Gauge
	kmax     *metrics.Gauge
}

func newAsyncMetrics(reg *metrics.Registry, rank int) *asyncMetrics {
	return &asyncMetrics{
		pipeline: reg.HistogramRank("phase.pipeline", rank),
		ph:       exchange.NewPhases(reg, rank),
		d2h:      reg.CounterRank("gpu.d2h.bytes", rank),
		strategy: reg.GaugeRank("exchange.strategy", rank),
		kmax:     reg.GaugeRank("transform.kmax", rank),
	}
}

// AsyncSlabReal is the batched asynchronous transform engine of Fig 4.
// It implements spectral.Transform. Not safe for concurrent use.
//
// The engine is compiled once: construction turns each of its four
// region passes into a flat op program — one prebuilt compute kernel,
// and where the wire packs a pack kernel and its events, per (plane
// group, device) cell — and a transform replays those programs through
// the streams. The per-call slabs reach the kernels through the four
// and phys fields, so the steady state builds no closure and allocates
// nothing.
type AsyncSlabReal struct {
	comm *mpi.Comm
	s    grid.Slab
	n    int
	nxh  int
	np   int
	gran Granularity

	gpus []*gpuCtx
	// groups are the np plane groups of the local slabs (Fig 3's
	// pencils), splitRange(N/P, np) of the z-planes of four and the
	// y-planes of mid alike; a group past N/P planes is empty. units are
	// what one exchange carries: the groups under PerPencil, every plane
	// under PerSlab.
	groups, units []span
	// lays[u] is the slab transpose over unit u's planes at the band
	// (transpose.SlabLayout.Range): its exchange kernels, staged blocks
	// and byte counts.
	lays []transpose.SlabLayout
	mid  []complex128 // [my][nz][nxh] intermediate slab
	// four32 and mid32 are the single-precision wire's copies of four
	// and mid (nil on the double-precision wire): a transposing cell
	// narrows its planes into one, the exchange lands in the other, and
	// the mirror region's cells widen their planes out of it.
	four32, mid32 []complex64
	// four and phys are the caller's Fourier and physical slabs for the
	// duration of one transform call; the compiled kernels and the
	// exchange kernels address them through these fields.
	four []complex128
	phys []float64
	// wire holds the staging buffers and the exchange stages, at the
	// precision the exchange ships (Options.SingleComm).
	wire wire

	// team splits the exchange stages' pack, gather and unpack kernels
	// across workers; it is shared by both transposing regions and
	// reused across steps.
	team *par.Team

	// The compiled regions by exchange direction: regT[d] runs in front
	// of d's exchange and feeds it, regM[d] behind it. YZ: the y inverse
	// on z-plane groups of four, then the z inverse and c2r per y-plane
	// of mid. ZY: r2c and the z forward per y-plane of mid, then the y
	// forward on z-plane groups of four.
	regT, regM [2]region

	met    *asyncMetrics
	closed bool

	// Pinned transpose-exchange strategy (never exchange.Auto), driving
	// both directions.
	strat exchange.Strategy
}

// NewAsyncSlabReal constructs the pipeline for an N³ real transform
// over the ranks of comm.
func NewAsyncSlabReal(comm *mpi.Comm, n int, opt Options) *AsyncSlabReal {
	if opt.Exchange == exchange.Auto {
		// Strategy-only search: every other dimension stays pinned to
		// the option values (np, workers and precision by the tuner's
		// own defaults, granularity here).
		return NewAsyncSlabRealTuned(comm, n, opt, tuning.Config{
			Space: tuning.Space{PerSlab: []bool{opt.Granularity == PerSlab}},
		})
	}
	return newAsyncSlabReal(comm, n, opt)
}

// newAsyncSlabReal builds the engine with opt.Exchange already
// concrete (or AT).
func newAsyncSlabReal(comm *mpi.Comm, n int, opt Options) *AsyncSlabReal {
	if n%2 != 0 {
		panic(fmt.Sprintf("core: N must be even, got %d", n))
	}
	if opt.NP == 0 {
		opt.NP = 3
	}
	if opt.NGPU == 0 {
		opt.NGPU = 1
	}
	if opt.Workers == 0 {
		opt.Workers = 1
	}
	nxh := n/2 + 1
	if opt.NP < 1 || opt.NP > nxh || opt.NP > n {
		panic(fmt.Sprintf("core: invalid pencil count %d for N=%d", opt.NP, n))
	}
	s := grid.NewSlab(n, comm.Size(), comm.Rank())
	a := &AsyncSlabReal{
		comm:   comm,
		s:      s,
		n:      n,
		nxh:    nxh,
		np:     opt.NP,
		gran:   opt.Granularity,
		strat:  opt.Exchange,
		groups: splitRange(s.MZ(), opt.NP),
	}
	a.units = a.groups
	if a.gran == PerSlab {
		a.units = []span{{0, s.MZ()}}
	}

	reg := opt.Metrics
	if reg == nil {
		reg = comm.Metrics()
	}
	a.met = newAsyncMetrics(reg, comm.Rank())
	a.team = par.NewTeam(opt.Workers)
	a.mid = pool.GetComplex(s.MY() * n * nxh)
	full := transpose.NewSlabLayout(nxh, n, s.MZ(), comm.Size())
	for _, us := range a.units {
		a.lays = append(a.lays, full.Range(us.lo, us.hi))
	}
	// The stages are registered unconditionally (registration is a cheap
	// collective and every rank must stay in the same collective order
	// regardless of the strategy each would pick). Under the asynchrony-
	// tolerant strategy they are bounded: publication is epoch-tagged
	// and gathers accept slabs up to ATMaxStale epochs old.
	var bound *exchange.Bound
	if opt.Exchange == exchange.AT {
		bound = &exchange.Bound{MaxStale: opt.ATMaxStale, Deadline: opt.ATDeadline}
	}
	if opt.SingleComm {
		a.four32, a.mid32 = pool.GetComplex64(a.FourierLen()), pool.GetComplex64(a.FourierLen())
		a.wire = newWire[complex64](a, bound)
	} else {
		a.wire = newWire[complex128](a, bound)
	}

	for g := 0; g < opt.NGPU; g++ {
		dev := cuda.NewDevice(g)
		dev.SetMetrics(reg, comm.Rank())
		ctx := &gpuCtx{
			dev:     dev,
			compute: dev.NewStream(fmt.Sprintf("gpu%d/compute", g)),
			team:    par.NewTeam(opt.Workers),
			plans:   make([]*fft.BatchCache, opt.Workers),
			ps: pfft.Passes{N: n, Stride: nxh, ZIn: make([]bool, s.MZ()),
				Y: make([]*fft.Batch, opt.Workers), X: make([]*fft.RealBatch, opt.Workers)},
		}
		if a.packs() {
			ctx.transfer = dev.NewStream(fmt.Sprintf("gpu%d/transfer", g))
		}
		for w := range ctx.plans {
			ctx.plans[w] = fft.NewBatchCache()
		}
		a.gpus = append(a.gpus, ctx)
	}
	a.Truncate(-1)
	a.met.strategy.Set(a.strat.Code())
	return a
}

// Truncate band-limits the transform pair to the modes with every
// |k_i| ≤ kmax (kmax < 0 or ≥ N/2: all of them, the state at
// construction) by recompiling the op programs for that band — see
// spectral.Transform.Truncate for the contract and compile for what
// the kernels skip. Plan time; every rank truncates to the same band
// between the same transforms. The per-worker plan caches keep the
// plans of earlier bands.
func (a *AsyncSlabReal) Truncate(kmax int) {
	if a.closed {
		return
	}
	band := grid.NewBand(a.n, kmax)
	a.compile(band)
	a.met.kmax.Set(float64(band.Kmax))
}

// Strategy reports the pinned transpose-exchange strategy (never
// exchange.Auto: autotuned engines report the winner).
func (a *AsyncSlabReal) Strategy() exchange.Strategy { return a.strat }

// Close releases the device worker goroutines, the worker teams, the
// cached FFT plans and every arena-backed buffer. Idempotent.
func (a *AsyncSlabReal) Close() {
	if a.closed {
		return
	}
	a.closed = true
	for _, g := range a.gpus {
		g.dev.Close()
		g.team.Close()
		for _, cache := range g.plans {
			cache.Release()
		}
	}
	a.team.Close()
	a.wire.close()
	pool.PutComplex(a.mid)
	pool.PutComplex64(a.four32)
	pool.PutComplex64(a.mid32)
	a.mid, a.four32, a.mid32 = nil, nil, nil
}

// Workers reports the per-rank worker-team size.
func (a *AsyncSlabReal) Workers() int { return a.team.Size() }

// Slab reports the decomposition geometry.
func (a *AsyncSlabReal) Slab() grid.Slab { return a.s }

// NXH is the stored x extent of the half-spectrum.
func (a *AsyncSlabReal) NXH() int { return a.nxh }

// FourierLen is the complex element count of the local Fourier slab.
func (a *AsyncSlabReal) FourierLen() int { return a.s.MZ() * a.n * a.nxh }

// PhysicalLen is the real element count of the local physical slab.
func (a *AsyncSlabReal) PhysicalLen() int { return a.s.MY() * a.n * a.n }

// packs reports whether the transposing cells carry a pack op (packOp):
// on the single-precision wire, where it narrows. On the
// double-precision wire every unit publishes its planes of the slab
// itself.
func (a *AsyncSlabReal) packs() bool { return a.four32 != nil }

// NP reports the pencil count per slab.
func (a *AsyncSlabReal) NP() int { return a.np }

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

// compile builds the four op programs for band: kb = band.Width(0,
// nxh) is the width of every batch and of every row the exchanges
// move. Every plan the kernels run is looked up here, one per worker
// and device, so neither plan construction nor a cache lookup is left
// in the timed regions.
//
// A plane group is a valid Fig 3 pencil of each pass it runs: z-planes
// of four are complete in y, y-planes of mid complete in z and x. So
// every batch runs the band's full width kb of in-band columns, and the
// z and x passes of a y-plane run back to back while it is in cache:
// the cells run the bodies of pfft.Passes, the slab engine's own, over
// their share of a group. The band reaches every pass (see
// pfft.Passes) and every exchange through the units' layouts: each
// pack and gather moves the kb columns of the in-band kz rows, the YZ
// gathers storing +0 over the same columns of the out-of-band rows of
// mid, which the z lines read. On the single-precision wire the mirror
// region's cells widen their planes before their pass.
func (a *AsyncSlabReal) compile(band grid.Band) {
	kb := band.Width(0, a.nxh)
	gapLo, gapHi := band.Gap()
	for _, ctx := range a.gpus {
		ps := &ctx.ps
		ps.KB, ps.GapLo, ps.GapHi = kb, gapLo, gapHi
		for iz := range ps.ZIn {
			ps.ZIn[iz] = band.Has(a.s.ZLo() + iz)
		}
		for w, cache := range ctx.plans {
			ps.Y[w] = cache.Batch(a.n, kb, a.nxh, 1, a.nxh, 1)
			ps.X[w] = cache.RealBatch(a.n, kb, a.n, 1, a.n, 1, a.nxh)
		}
	}
	for u := range a.lays {
		a.lays[u].SetBand(kb, band)
	}
	a.regT[exchange.YZ] = a.region(exchange.YZ, true, func(ps *pfft.Passes, w, lo, hi int) { ps.InvY(w, a.four, lo, hi) })
	a.regM[exchange.YZ] = a.region(exchange.YZ, false, func(ps *pfft.Passes, w, lo, hi int) {
		if a.mid32 != nil {
			ps.WidenB(a.mid, a.mid32, lo, hi)
		}
		ps.InvZX(w, a.phys, a.mid, lo, hi)
	})
	a.regT[exchange.ZY] = a.region(exchange.ZY, true, func(ps *pfft.Passes, w, lo, hi int) { ps.FwdXZ(w, a.mid, a.phys, lo, hi) })
	a.regM[exchange.ZY] = a.region(exchange.ZY, false, func(ps *pfft.Passes, w, lo, hi int) {
		if a.four32 != nil {
			ps.WidenC(a.four, a.four32, lo, hi)
		}
		ps.FwdY(w, a.four, lo, hi)
	})
}

// region compiles one pass: a cell per (group, device) whose kernel
// runs pass over the device's share of the group's planes, split
// across the device's team. A transposing region's cells also carry the
// pack op of their planes where the wire packs (packOp), and the events
// of their Fig 4 edges.
func (a *AsyncSlabReal) region(d exchange.Dir, transposing bool, pass func(ps *pfft.Passes, w, lo, hi int)) region {
	ngpu := len(a.gpus)
	r := region{cells: make([]cell, a.np*ngpu), dir: d}
	if transposing {
		r.packs, r.units = a.packs(), a.gran == PerPencil
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
func (a *AsyncSlabReal) packOp(d exchange.Dir, u int, sp span, ps *pfft.Passes) cuda.Op {
	cl := a.lays[u].Range(sp.lo, sp.hi)
	return cuda.Op{Kind: "pack", Bytes: 8 * int64(cl.PackElems(a.comm.Rank(), d == exchange.YZ)), Run: func() {
		if d == exchange.YZ {
			ps.NarrowC(a.four32, a.four, sp.lo, sp.hi)
		} else {
			ps.NarrowB(a.mid32, a.mid, sp.lo, sp.hi)
		}
	}}
}

// FourierToPhysical runs the Fig 4 pipeline: the y region with its
// exchange fused in, then the z+x region. four is consumed.
//
//psdns:hotpath
func (a *AsyncSlabReal) FourierToPhysical(phys []float64, four []complex128) {
	if len(four) != a.FourierLen() || len(phys) != a.PhysicalLen() {
		panic(fmt.Sprintf("core: F2P wants %d/%d, got %d/%d",
			a.FourierLen(), a.PhysicalLen(), len(four), len(phys)))
	}
	a.four, a.phys = four, phys
	a.transform(exchange.YZ)
	a.four, a.phys = nil, nil
}

// PhysicalToFourier runs the reverse pipeline: the x+z (r2c) region
// with the reverse exchange fused in, then the y region. phys is left
// untouched.
//
//psdns:hotpath
func (a *AsyncSlabReal) PhysicalToFourier(four []complex128, phys []float64) {
	if len(four) != a.FourierLen() || len(phys) != a.PhysicalLen() {
		panic(fmt.Sprintf("core: P2F wants %d/%d, got %d/%d",
			a.FourierLen(), a.PhysicalLen(), len(four), len(phys)))
	}
	a.four, a.phys = four, phys
	a.transform(exchange.ZY)
	a.four, a.phys = nil, nil
}

// transform is one direction of Fig 4: the dashed transposing region,
// its exchange, and the region behind it. Unit u of the exchange is
// plane group u: under PerPencil it starts from inside the pipeline as
// soon as the group is ready on every device, overlapping the later
// groups' compute. Every strategy runs a unit through the unit's
// exchange.Stage: the zero-copy ones publish the group's planes and
// every peer gathers them in place into its destination slab —
// straight from the slab on the double-precision wire, where the
// region packs nothing, from the planes the pack narrowed on the f32
// wire — and Staged packs the planes into staged blocks, exchanges the
// blocks and unpacks them. Under PerSlab the one exchange follows the
// region.
//
//psdns:hotpath
func (a *AsyncSlabReal) transform(d exchange.Dir) {
	a.pipeline(&a.regT[d])
	if !a.regT[d].units {
		a.exchange(d, a.strat)
	}
	a.pipeline(&a.regM[d])
}

// pipeline replays a region's op program with the Fig 4 launch order:
// the pack of the previous group first (prioritizing copies out of the
// device so exchanges can start early), then the compute of the
// current group, with an event ordering each pack behind its compute
// across the two streams. In a region with units, unit ip's exchange is
// started from the host once group ip is ready on every device — two
// groups behind the launch frontier, the (ip−2) rule of Fig 4. Time an
// exchange spends there is the exchange stage's (phase.pack, phase.a2a,
// phase.unpack), not the pipeline's.
//
//psdns:hotpath
func (a *AsyncSlabReal) pipeline(r *region) {
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
func (a *AsyncSlabReal) launchPacks(r *region, ip int) {
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
func (a *AsyncSlabReal) readyUnit(r *region, ip int) time.Duration {
	for g := range a.gpus {
		c := &r.cells[ip*len(a.gpus)+g]
		if r.packs {
			c.packed.Synchronize()
		} else {
			c.computed.Synchronize()
		}
	}
	t0 := time.Now()
	a.startUnit(r.dir, a.strat, ip)
	return time.Since(t0)
}

// startUnit runs unit u's exchange under st to completion through the
// unit's stage. An empty unit (a group past N/P planes) has nothing to
// move, on every rank alike, and is skipped. Collective.
//
//psdns:hotpath
func (a *AsyncSlabReal) startUnit(d exchange.Dir, st exchange.Strategy, u int) {
	if a.units[u].width() > 0 {
		a.wire.run(d, st, u)
	}
}

// exchange runs direction d's exchange under st outside the pipeline,
// every unit in turn: the one unit behind a PerSlab region and the
// tuner's whole trial body (buffer contents are irrelevant to timing).
// Collective.
//
//psdns:hotpath
func (a *AsyncSlabReal) exchange(d exchange.Dir, st exchange.Strategy) {
	for u := range a.units {
		a.startUnit(d, st, u)
	}
}

// SetATSite labels the quantity the next bounded exchanges carry (see
// exchange.Stage.SetATSite): callers interleaving several fields or
// stages through one engine set a collectively-consistent site index
// before each transform call, so accepted stale slabs are always the
// same quantity from whole steps earlier. No-op on non-AT engines.
func (a *AsyncSlabReal) SetATSite(site uint32) { a.wire.setSite(site) }

// TakeStaleness drains the asynchrony-tolerant staleness window across
// every exchange stage since the previous take: worst accepted slab
// age (in same-site cycles), summed age, stale slab count and bounded-
// exchange count. All zeros on non-AT engines.
func (a *AsyncSlabReal) TakeStaleness() (max int, sum, slabs, calls int64) {
	return a.wire.takeStaleness()
}
