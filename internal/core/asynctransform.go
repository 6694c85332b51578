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
	"repro/internal/pool"
	"repro/internal/transpose"
	"repro/internal/tuning"
)

// Granularity selects how much data each MPI all-to-all carries.
type Granularity int

const (
	// PerPencil posts one non-blocking all-to-all per pencil as soon
	// as its packed D2H completes (paper configurations A and B).
	PerPencil Granularity = iota
	// PerSlab waits for every pencil and posts one large blocking
	// all-to-all for the whole slab (paper configuration C).
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
	// NP is the number of pencils each slab is divided into (Fig 3);
	// it must satisfy 1 ≤ NP ≤ N/2+1. Zero means 3, the Table 1 value.
	NP int
	// Granularity selects per-pencil (A/B) or per-slab (C) exchanges.
	Granularity Granularity
	// NGPU is the number of devices per MPI rank (Fig 5); each pencil
	// is split vertically across them. Zero means 1.
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
	// Exchange selects the transpose-exchange strategy: Staged posts
	// MPI all-to-alls and unpacks the received blocks (the wire path of
	// the paper's staged variant), Fused and ChunkedFused gather
	// directly from every peer's packed send buffer into the local
	// destination layout through an mpi.ExchangePlan (the zero-copy
	// variant), and Auto (the zero value) times all three at plan time
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

// gpuCtx is the per-device execution context: one compute stream and
// one transfer stream (§3.4: a single transfer stream keeps host
// memory traffic unidirectional), plus the plan cache serving the
// device's batched FFTs (the cufftPlanMany handles of §4.1). There are
// no device buffers: device memory is host memory on this backend, so
// every kernel works on the host slab in place (§4.2's zero-copy).
type gpuCtx struct {
	dev      *cuda.Device
	transfer *cuda.Stream
	compute  *cuda.Stream
	// team splits the batched FFT loops inside this device's compute
	// kernels; plans[w] is worker w's plan cache (plans carry scratch
	// and are not concurrency-safe, so each worker owns a full set).
	team  *par.Team
	plans []*fft.BatchCache
}

// asyncMetrics are the per-rank instrumentation handles of the
// asynchronous engine: the three disjoint wall sections of each
// transposing transform (device pipeline, exposed all-to-all,
// host-side unpack) and the bytes the pack kernels write out of the
// device pipeline (the only transfer left: nothing is staged in).
type asyncMetrics struct {
	pipeline *metrics.Histogram
	a2a      *metrics.Histogram
	unpack   *metrics.Histogram
	d2h      *metrics.Counter
	strategy *metrics.Gauge
	kmax     *metrics.Gauge
}

func newAsyncMetrics(reg *metrics.Registry, rank int) *asyncMetrics {
	return &asyncMetrics{
		pipeline: reg.HistogramRank("phase.pipeline", rank),
		a2a:      reg.HistogramRank("phase.a2a", rank),
		unpack:   reg.HistogramRank("phase.unpack", rank),
		d2h:      reg.CounterRank("gpu.d2h.bytes", rank),
		strategy: reg.GaugeRank("exchange.strategy", rank),
		kmax:     reg.GaugeRank("transform.kmax", rank),
	}
}

// AsyncSlabReal is the batched asynchronous transform engine of Fig 4.
// It implements spectral.Transform. Not safe for concurrent use.
//
// The engine is compiled once: construction turns each of the six
// region passes into a flat op program — one prebuilt compute kernel,
// pack kernel and pair of reusable events per (pencil, device) cell —
// and a transform replays those programs through the streams. The
// per-call slabs reach the kernels through the four and phys fields, so
// the steady state builds no closure and allocates nothing.
type AsyncSlabReal struct {
	comm *mpi.Comm
	s    grid.Slab
	n    int
	nxh  int
	np   int
	gran Granularity

	gpus []*gpuCtx
	xr   []span // region y/z pencil x-ranges over nxh
	zr   []span // region x pencil z-ranges over n

	// xu are the exchange units over nxh — what one all-to-all carries:
	// the pencils under PerPencil, the whole x range under PerSlab.
	xu  []span
	mid []complex128 // [my][nz][nxh] intermediate slab
	// four and phys are the caller's Fourier and physical slabs for the
	// duration of one transform call; the compiled kernels and the
	// exchange kernels address them through these fields.
	four []complex128
	phys []float64
	// wire holds the staging buffers, the pack kernels and the exchange
	// stages, at the precision the exchange ships (Options.SingleComm).
	wire wire

	// team splits the host-side unpack and gather kernels across
	// workers; it is shared by both transposing regions and reused
	// across steps.
	team *par.Team
	reqs []*mpi.Request // one request slot per exchange unit

	// The compiled regions: the transposing y and z passes by exchange
	// direction, the in-place y and z passes, the x passes by direction.
	regT             [2]region
	regY, regZ       region
	regXFwd, regXInv region

	// band is what the kernels are compiled for (Truncate; full at
	// construction). The wire's kernels read it on every call, with
	// unitKB[u], the in-band columns of exchange unit u — a unit with
	// none is not exchanged.
	band   grid.Band
	unitKB []int

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
		comm:  comm,
		s:     s,
		n:     n,
		nxh:   nxh,
		np:    opt.NP,
		gran:  opt.Granularity,
		strat: opt.Exchange,
		xr:    splitRange(nxh, opt.NP),
		zr:    splitRange(n, opt.NP),
	}
	a.xu = a.xr
	if a.gran == PerSlab {
		a.xu = []span{{0, nxh}}
	}

	reg := opt.Metrics
	if reg == nil {
		reg = comm.Metrics()
	}
	a.met = newAsyncMetrics(reg, comm.Rank())

	for g := 0; g < opt.NGPU; g++ {
		dev := cuda.NewDevice(g)
		dev.SetMetrics(reg, comm.Rank())
		ctx := &gpuCtx{
			dev:      dev,
			transfer: dev.NewStream(fmt.Sprintf("gpu%d/transfer", g)),
			compute:  dev.NewStream(fmt.Sprintf("gpu%d/compute", g)),
			team:     par.NewTeam(opt.Workers),
			plans:    make([]*fft.BatchCache, opt.Workers),
		}
		for w := range ctx.plans {
			ctx.plans[w] = fft.NewBatchCache()
		}
		a.gpus = append(a.gpus, ctx)
	}
	a.team = par.NewTeam(opt.Workers)
	a.reqs = make([]*mpi.Request, len(a.xu))
	a.unitKB = make([]int, len(a.xu))

	a.mid = pool.GetComplex(s.MY() * n * nxh)
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
		a.wire = newWire(a, bound, transpose.NarrowStrided, transpose.WidenStrided)
	} else {
		a.wire = newWire(a, bound, transpose.CopyStrided[complex128], transpose.CopyStrided[complex128])
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
	a.band = grid.NewBand(a.n, kmax)
	a.compile()
	a.met.kmax.Set(float64(a.band.Kmax))
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
	a.mid = nil
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

// NP reports the pencil count per slab.
func (a *AsyncSlabReal) NP() int { return a.np }

// subRange returns device g's share of a pencil's range (Fig 5
// vertical split).
func subRange(xs span, g, ngpu int) span {
	subs := splitRange(xs.width(), ngpu)
	return span{xs.lo + subs[g].lo, xs.lo + subs[g].hi}
}

// cell is one (pencil, device) entry of a region's op program. A
// zero-width sub-pencil leaves compute.Run nil; only transposing
// regions carry a pack kernel and the two events that order it: compute
// → pack across the device's streams, pack → host for the per-pencil
// all-to-all.
type cell struct {
	compute, pack    cuda.Op
	computed, packed *cuda.Event
}

// region is one compiled pass of Fig 4: np rows of one cell per device.
// A transposing region packs, in direction dir; under PerPencil its
// unit exchanges are started from inside the pipeline.
type region struct {
	cells []cell
	dir   exchange.Dir
	packs bool
	units bool
}

// compile builds the six op programs for a.band. Every plan the kernels
// run is looked up here, one per worker and width including the
// vertical GPU sub-splits of Fig 5, so neither plan construction nor a
// cache lookup is left in the timed regions.
//
// The band reaches every pass and every exchange: each (pencil, device)
// line kernel of the y and z passes transforms the kb of its columns
// whose kx is inside it — a cell left with none keeps its kernel, so
// the launch and event order of Fig 4 does not depend on the band — and
// the y kernels, which see the y-complete Fourier slab, also skip its
// out-of-band z-planes (the inverse's, wholly: the exchange reads none
// of them) and store the band's zeros after the forward's lines. The x
// kernels take their real batches at the band's width of the
// half-spectrum, so the r2c stores and the c2r loads stop at the last
// in-band bin of each mid-slab row. Each cell's pack kernel and each
// unit's scatters move the kb columns of the in-band kz rows and
// nothing else, the YZ scatters storing +0 over the same columns of the
// out-of-band rows of mid, and a unit with no in-band column (at
// N = 64, np = 4, the last of four) skips its exchange on every rank
// while its cells are still launched.
func (a *AsyncSlabReal) compile() {
	n, nxh, mz, my, ngpu := a.n, a.nxh, a.s.MZ(), a.s.MY(), len(a.gpus)
	for u, xs := range a.xu {
		a.unitKB[u] = a.band.Width(xs.lo, xs.hi)
	}
	a.wire.setBand()
	zIn := make([]bool, mz)
	for iz := range zIn {
		zIn[iz] = a.band.Has(a.s.ZLo() + iz)
	}
	// line compiles an FFT pass along the middle axis of slab =
	// [ma][n][nxh] over the x-split pencils: each kernel transforms its
	// pencil's in-band columns in place, at the slab's own stride; planes
	// is the z-plane table of a y pass, nil for a z pass (whose planes
	// are physical y). A packing region transposes: a pack kernel per
	// cell moves the pencil into its unit's send blocks, mb rows per
	// destination and plane.
	line := func(slab *[]complex128, ma, mb int, planes []bool, fwd bool, dir exchange.Dir, packs bool) region {
		r := region{cells: make([]cell, a.np*ngpu), dir: dir, packs: packs, units: packs && a.gran == PerPencil}
		for ip, xp := range a.xr {
			for g, ctx := range a.gpus {
				xs := subRange(xp, g, ngpu)
				w := xs.width()
				if w == 0 {
					continue
				}
				k := &lineKernel{team: ctx.team, slab: slab, planes: planes, fwd: fwd,
					nplanes: ma, n: n, nxh: nxh, off: xs.lo, w: w, kb: a.band.Width(xs.lo, xs.hi)}
				k.gapLo, k.gapHi = a.band.Gap()
				for _, cache := range ctx.plans {
					k.plans = append(k.plans, cache.Batch(n, k.kb, nxh, 1, nxh, 1))
				}
				k.each = k.body
				c := &r.cells[ip*ngpu+g]
				c.compute = cuda.Op{Kind: "fft-line", Run: k.run}
				if !packs {
					continue
				}
				u := ip
				if a.gran == PerSlab {
					u = 0
				}
				run, bytes := a.wire.packKernel(slab, dir, u, xs, ma, mb)
				c.pack = cuda.Op{Kind: "zerocopy-pack", Run: run, Bytes: bytes}
				c.computed, c.packed = cuda.NewEvent(), cuda.NewEvent()
			}
		}
		return r
	}
	a.regT[exchange.YZ] = line(&a.four, mz, my, zIn, false, exchange.YZ, true)
	a.regT[exchange.ZY] = line(&a.mid, my, mz, nil, true, exchange.ZY, true)
	a.regY = line(&a.four, mz, my, zIn, true, 0, false)
	a.regZ = line(&a.mid, my, mz, nil, false, 0, false)
	// The x passes run r2c/c2r over the z-split pencils straight
	// between the physical slab [my][nz][nx] and the mid slab's in-band
	// bins.
	kx := a.band.Width(0, nxh)
	for _, r := range []*region{&a.regXFwd, &a.regXInv} {
		r.cells = make([]cell, a.np*ngpu)
		for ip, zp := range a.zr {
			for g, ctx := range a.gpus {
				zs := subRange(zp, g, ngpu)
				if zs.width() == 0 {
					continue
				}
				plans := make([]*fft.RealBatch, len(ctx.plans))
				for wk, cache := range ctx.plans {
					plans[wk] = cache.RealBatch(n, kx, zs.width(), 1, n, 1, nxh)
				}
				r.cells[ip*ngpu+g].compute = cuda.Op{Kind: "fft-x", Run: a.realKernel(ctx.team, plans, zs, r == &a.regXFwd)}
			}
		}
	}
}

// lineKernel is the compute kernel of one cell of a y or z pass: the
// team's workers split the slab's planes ([n][nxh] each, the cell's w
// columns starting at element off of each) and run the kb-wide batch in
// place. Planes are independent and every worker runs an identical
// plan, so the output is bitwise invariant under the team size. A y
// pass (planes non-nil: which of the slab's z-planes are in the band)
// also handles the band's zeros over its columns. Forward, it stores
// them behind its lines: the whole span of an out-of-band plane, else
// the gap rows and the column tails. Inverse, it skips out-of-band
// planes and stores +0 only over the gap rows of its kb columns, which
// its lines read; nothing else of the plane is read by the exchange. A
// z pass needs no zeros: inverse, the exchange's receiving side stores
// them; forward, the y pass behind the exchange does. Built at plan
// time.
type lineKernel struct {
	team         *par.Team
	plans        []*fft.Batch
	slab         *[]complex128
	planes       []bool
	fwd          bool
	nplanes      int
	n, nxh       int
	off, w, kb   int
	gapLo, gapHi int
	each         func(wk, lo, hi int) // body, bound once: the replay path builds no closure
}

//psdns:hotpath
func (k *lineKernel) run() { k.team.ForWorkers(k.nplanes, k.each) }

//psdns:hotpath
func (k *lineKernel) body(wk, lo, hi int) {
	buf, plane := *k.slab, k.n*k.nxh
	for pl := lo; pl < hi; pl++ {
		cols := buf[pl*plane+k.off : (pl+1)*plane]
		switch {
		case k.planes == nil && k.fwd:
			k.plans[wk].Forward(cols, cols)
		case k.planes == nil:
			k.plans[wk].Inverse(cols, cols)
		case !k.planes[pl] && k.fwd:
			transpose.ZeroOutOfBand(cols, k.n, k.nxh, k.w, 0, 0, 0)
		case !k.planes[pl]: // the inverse's exchange reads no out-of-band plane
		case k.fwd:
			k.plans[wk].Forward(cols, cols)
			transpose.ZeroOutOfBand(cols, k.n, k.nxh, k.w, k.kb, k.gapLo, k.gapHi)
		default:
			transpose.ZeroOutOfBand(cols, k.n, k.nxh, k.kb, k.kb, k.gapLo, k.gapHi)
			k.plans[wk].Inverse(cols, cols)
		}
	}
}

// realKernel is the compute kernel of one cell of an x pass: rows
// zs of every y plane, r2c from the physical slab into the mid slab
// (forward) or c2r back.
//
//psdns:hotpath
func (a *AsyncSlabReal) realKernel(team *par.Team, plans []*fft.RealBatch, zs span, forward bool) func() {
	n, nxh := a.n, a.nxh
	body := func(wk, lo, hi int) {
		for iy := lo; iy < hi; iy++ {
			re := a.phys[(iy*n+zs.lo)*n : (iy*n+zs.hi)*n]
			sp := a.mid[(iy*n+zs.lo)*nxh : (iy*n+zs.hi)*nxh]
			if forward {
				plans[wk].Forward(sp, re)
			} else {
				plans[wk].Inverse(re, sp)
			}
		}
	}
	return func() { team.ForWorkers(a.s.MY(), body) }
}

// FourierToPhysical runs the Fig 4 pipeline: the y region with fused
// pack + all-to-all, then the z and x regions. four is consumed.
//
//psdns:hotpath
func (a *AsyncSlabReal) FourierToPhysical(phys []float64, four []complex128) {
	if len(four) != a.FourierLen() || len(phys) != a.PhysicalLen() {
		panic(fmt.Sprintf("core: F2P wants %d/%d, got %d/%d",
			a.FourierLen(), a.PhysicalLen(), len(four), len(phys)))
	}
	a.four, a.phys = four, phys
	a.transpose(exchange.YZ)
	a.pipeline(&a.regZ)
	a.pipeline(&a.regXInv)
	a.four, a.phys = nil, nil
}

// PhysicalToFourier runs the reverse pipeline: the x (r2c) region, the
// z region with the reverse all-to-all fused behind its pack, then the
// y region. phys is left untouched.
//
//psdns:hotpath
func (a *AsyncSlabReal) PhysicalToFourier(four []complex128, phys []float64) {
	if len(four) != a.FourierLen() || len(phys) != a.PhysicalLen() {
		panic(fmt.Sprintf("core: P2F wants %d/%d, got %d/%d",
			a.FourierLen(), a.PhysicalLen(), len(four), len(phys)))
	}
	a.four, a.phys = four, phys
	a.pipeline(&a.regXFwd)
	a.transpose(exchange.ZY)
	a.pipeline(&a.regY)
	a.four, a.phys = nil, nil
}

// transpose is a dashed region of Fig 4, in either direction. YZ runs
// inverse y transforms on the Fourier slab [mz][ny][nxh] and exchanges
// it into the mid slab; ZY runs forward z transforms on the mid slab
// [my][nz][nxh] and exchanges it into the Fourier slab. The pack is the
// one copy of the region: a zero-copy kernel per (pencil, device) that
// reads the transformed pencil out of the host slab and writes it, at
// wire precision, into the send blocks [dst][ma][mb][wp] (§4.2). Under
// PerPencil each unit's exchange starts from inside the pipeline as
// soon as its pack completes, overlapping the later pencils' compute:
// Staged posts the all-to-all there and unpacks the received blocks
// once all have arrived, the zero-copy strategies skip the wire and
// gather the unit from every peer's send buffer in place through its
// exchange stage. Under PerSlab the one exchange follows the pipeline.
//
//psdns:hotpath
func (a *AsyncSlabReal) transpose(d exchange.Dir) {
	a.pipeline(&a.regT[d])
	a.exchange(d, a.strat, a.regT[d].units)
}

// pipeline replays a region's op program with the Fig 4 launch order:
// the pack of the previous pencil first (prioritizing copies out of
// the device so exchanges can start early), then the compute of the
// current pencil, with an event ordering each pack behind its compute
// across the two streams. In a region with units, unit ip's exchange
// is started from the host once pencil ip's pack has completed on
// every device — two pencils behind the launch frontier, the (ip−2)
// rule of Fig 4. Time a zero-copy gather spends there is the exchange
// stage's (phase.a2a), not the pipeline's.
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
			if c.compute.Run == nil {
				continue
			}
			ctx.compute.Enqueue(&c.compute)
			if r.packs {
				ctx.compute.RecordEvent(c.computed)
			}
		}
		if r.units && ip >= 2 {
			gathering += a.packedUnit(r, ip-2)
		}
	}
	a.launchPacks(r, a.np-1)
	for ip := max(0, a.np-2); r.units && ip < a.np; ip++ {
		gathering += a.packedUnit(r, ip)
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

// launchPacks enqueues pencil ip's pack kernels on the transfer
// streams, each behind its compute; the packed event is recorded only
// when the host will wait on it.
//
//psdns:hotpath
func (a *AsyncSlabReal) launchPacks(r *region, ip int) {
	for g, ctx := range a.gpus {
		c := &r.cells[ip*len(a.gpus)+g]
		if c.pack.Run == nil {
			continue
		}
		ctx.transfer.Wait(c.computed)
		ctx.transfer.Enqueue(&c.pack)
		a.met.d2h.Add(c.pack.Bytes)
		if r.units {
			ctx.transfer.RecordEvent(c.packed)
		}
	}
}

// packedUnit waits for pencil ip's pack on every device and starts its
// exchange, reporting the time a zero-copy gather took.
//
//psdns:hotpath
func (a *AsyncSlabReal) packedUnit(r *region, ip int) time.Duration {
	for g := range a.gpus {
		if c := &r.cells[ip*len(a.gpus)+g]; c.pack.Run != nil {
			c.packed.Synchronize()
		}
	}
	t0 := time.Now()
	a.startUnit(r.dir, a.strat, ip)
	if a.strat == exchange.Staged {
		return 0
	}
	return time.Since(t0)
}

// startUnit starts unit u's exchange under st: the staged all-to-all
// is posted, a zero-copy gather runs to completion. A unit with no
// in-band column has nothing to move, on every rank alike (they share
// the band), and is skipped. Collective.
//
//psdns:hotpath
func (a *AsyncSlabReal) startUnit(d exchange.Dir, st exchange.Strategy, u int) {
	switch {
	case a.unitKB[u] == 0:
		a.reqs[u] = nil
	case st == exchange.Staged:
		a.reqs[u] = a.wire.post(u)
	default:
		a.wire.gather(d, st, u)
	}
}

// zRuns splits [lo, hi) into its in-band global kz rows, the two runs
// either side of the band's gap, clamped, either possibly empty.
//
//psdns:hotpath
func (a *AsyncSlabReal) zRuns(lo, hi int) [2]span {
	gapLo, gapHi := a.band.Gap()
	return [2]span{{lo, max(lo, min(hi, gapLo))}, {min(hi, max(lo, gapHi)), hi}}
}

// exchange completes direction d's exchange under st, outside the
// pipeline: the tail of a transposing region and, with nothing started,
// the tuner's whole trial body (buffer contents are irrelevant to
// timing). started says every unit's exchange was started from the
// pipeline, which leaves only the staged requests to wait on and
// unpack. Collective.
//
//psdns:hotpath
func (a *AsyncSlabReal) exchange(d exchange.Dir, st exchange.Strategy, started bool) {
	t0 := time.Now()
	if !started {
		for u := range a.xu {
			a.startUnit(d, st, u)
		}
	}
	if st != exchange.Staged {
		return
	}
	a.waitAll(a.reqs)
	a.met.a2a.ObserveSince(t0)
	t0 = time.Now()
	a.wire.unpack(d)
	a.met.unpack.ObserveSince(t0)
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

// waitAll waits on every posted per-pencil request in order (a
// skipped unit has none).
//
//psdns:hotpath
func (a *AsyncSlabReal) waitAll(reqs []*mpi.Request) {
	for _, r := range reqs {
		if r != nil {
			r.Wait()
		}
	}
}
