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
	// WaitDeadline, when positive, bounds each wait on a per-pencil
	// all-to-all request: a fragment that fails to arrive within the
	// deadline aborts the world with a typed mpi.StallError instead of
	// hanging the pipeline (the engine-level analogue of the runtime's
	// stall watchdog). Zero waits indefinitely.
	WaitDeadline time.Duration
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
// device's batched FFTs (the cufftPlanMany handles of §4.1).
type gpuCtx struct {
	dev      *cuda.Device
	transfer *cuda.Stream
	compute  *cuda.Stream
	// Triple-buffered device slots (§3.5's factor of 3 on buffers),
	// checked out of the process buffer arena at construction.
	slots  [3][]complex128
	rslots [3][]float64
	// team splits the batched FFT loops inside this device's compute
	// launches; plans[w] is worker w's plan cache (plans carry scratch
	// and are not concurrency-safe, so each worker owns a full set).
	team  *par.Team
	plans []*fft.BatchCache
}

// asyncMetrics are the per-rank instrumentation handles of the
// asynchronous engine: the three disjoint wall sections of each
// transposing transform (device pipeline, exposed all-to-all,
// host-side unpack) and direction-labelled transfer bytes.
type asyncMetrics struct {
	pipeline *metrics.Histogram
	a2a      *metrics.Histogram
	unpack   *metrics.Histogram
	h2d      *metrics.Counter
	d2h      *metrics.Counter
	strategy *metrics.Gauge
}

func newAsyncMetrics(reg *metrics.Registry, rank int) *asyncMetrics {
	return &asyncMetrics{
		pipeline: reg.HistogramRank("phase.pipeline", rank),
		a2a:      reg.HistogramRank("phase.a2a", rank),
		unpack:   reg.HistogramRank("phase.unpack", rank),
		h2d:      reg.CounterRank("gpu.h2d.bytes", rank),
		d2h:      reg.CounterRank("gpu.d2h.bytes", rank),
		strategy: reg.GaugeRank("exchange.strategy", rank),
	}
}

// AsyncSlabReal is the batched asynchronous transform engine of Fig 4.
// It implements spectral.Transform. Not safe for concurrent use.
type AsyncSlabReal struct {
	comm *mpi.Comm
	s    grid.Slab
	n    int
	nxh  int
	np   int
	gran Granularity
	// waitDeadline bounds each all-to-all wait (Options.WaitDeadline).
	waitDeadline time.Duration

	gpus []*gpuCtx
	xr   []span // region y/z pencil x-ranges over nxh
	zr   []span // region x pencil z-ranges over n

	// xu are the exchange units over nxh — what one all-to-all carries:
	// the pencils under PerPencil, the whole x range under PerSlab.
	xu   []span
	mid  []complex128 // [my][nz][nxh] intermediate slab
	four []complex128 // Fourier slab the current z→y exchange lands in
	// wire holds the staging buffers and the exchange stages, at the
	// precision the exchange ships (Options.SingleComm): wireElem bytes
	// per element.
	wire     wire
	wireElem int64

	// team splits the host-side unpack and gather kernels across
	// workers; it is shared by both transposing regions and reused
	// across steps.
	team *par.Team
	// Per-step pipeline state, hoisted to construction so the hot path
	// does not allocate: one request slot, event record and op record
	// per (pencil, device).
	reqs   []*mpi.Request
	pstate [][]pencilEvs
	pops   [][]pencilOps

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
		comm:         comm,
		s:            s,
		n:            n,
		nxh:          nxh,
		np:           opt.NP,
		gran:         opt.Granularity,
		waitDeadline: opt.WaitDeadline,
		xr:           splitRange(nxh, opt.NP),
		zr:           splitRange(n, opt.NP),
	}
	a.xu = a.xr
	if a.gran == PerSlab {
		a.xu = []span{{0, nxh}}
	}
	mz, my := s.MZ(), s.MY()

	reg := opt.Metrics
	if reg == nil {
		reg = comm.Metrics()
	}
	a.met = newAsyncMetrics(reg, comm.Rank())

	// Device slot sizing: the largest pencil seen by any region.
	wmax := a.xr[0].width()
	zmax := a.zr[0].width()
	slotC := max(mz*n*wmax, max(my*n*wmax, my*zmax*nxh))
	slotR := my * zmax * n

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
		for i := range ctx.slots {
			ctx.slots[i] = pool.GetComplex(slotC)
			ctx.rslots[i] = pool.GetFloat(slotR)
		}
		a.gpus = append(a.gpus, ctx)
	}
	a.team = par.NewTeam(opt.Workers)
	a.reqs = make([]*mpi.Request, a.np)
	a.pstate = make([][]pencilEvs, a.np)
	a.pops = make([][]pencilOps, a.np)
	for ip := range a.pstate {
		a.pstate[ip] = make([]pencilEvs, opt.NGPU)
		a.pops[ip] = make([]pencilOps, opt.NGPU)
	}
	// Pre-build plans for every width that can occur, including the
	// vertical GPU sub-splits of Fig 5, so plan construction stays out
	// of the timed regions (runtime lookups are then all cache hits).
	// Every worker's cache gets the full set: which planes a worker
	// draws depends only on the chunking, but the widths are shared.
	for _, ctx := range a.gpus {
		for _, cache := range ctx.plans {
			for _, xs := range a.xr {
				for _, sub := range splitRange(xs.width(), opt.NGPU) {
					if w := sub.width(); w > 0 {
						cache.Batch(n, w, w, 1, w, 1)
					}
				}
			}
			for _, zs := range a.zr {
				for _, sub := range splitRange(zs.width(), opt.NGPU) {
					if zw := sub.width(); zw > 0 {
						cache.RealBatch(n, zw, 1, n, 1, nxh)
					}
				}
			}
		}
	}

	a.mid = pool.GetComplex(my * n * nxh)
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
		a.wire, a.wireElem = newWire(a, bound, narrow2DAsync, transpose.WidenStrided), 8
	} else {
		a.wire, a.wireElem = newWire(a, bound, cuda.Memcpy2DAsync[complex128], transpose.CopyStrided[complex128]), 16
	}
	a.setStrategy(opt.Exchange)
	return a
}

// setStrategy pins the transpose-exchange strategy of both directions
// and publishes it on the exchange.strategy gauge.
func (a *AsyncSlabReal) setStrategy(st exchange.Strategy) {
	a.strat = st
	a.met.strategy.Set(st.Code())
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
		for i := range g.slots {
			pool.PutComplex(g.slots[i])
			pool.PutFloat(g.rslots[i])
			g.slots[i], g.rslots[i] = nil, nil
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

// FourierToPhysical runs the Fig 4 pipeline: the y region with fused
// pack + all-to-all, then the z and x regions. four is consumed.
//
//psdns:hotpath
func (a *AsyncSlabReal) FourierToPhysical(phys []float64, four []complex128) {
	if len(four) != a.FourierLen() || len(phys) != a.PhysicalLen() {
		panic(fmt.Sprintf("core: F2P wants %d/%d, got %d/%d",
			a.FourierLen(), a.PhysicalLen(), len(four), len(phys)))
	}
	a.regionTranspose(exchange.YZ, four, fft.Inverse)
	a.regionZ(fft.Inverse)
	a.regionXInverse(phys)
}

// PhysicalToFourier runs the reverse pipeline: the x (r2c) and z
// regions, the reverse all-to-all fused into the z region's D2H, then
// the y region.
//
//psdns:hotpath
func (a *AsyncSlabReal) PhysicalToFourier(four []complex128, phys []float64) {
	if len(four) != a.FourierLen() || len(phys) != a.PhysicalLen() {
		panic(fmt.Sprintf("core: P2F wants %d/%d, got %d/%d",
			a.FourierLen(), a.PhysicalLen(), len(four), len(phys)))
	}
	a.regionXForward(phys)
	a.four = four
	a.regionTranspose(exchange.ZY, a.mid, fft.Forward)
	a.four = nil
	a.regionY(four, fft.Forward)
}

// regionY streams x-split pencils of the Fourier slab [mz][ny][nxh]
// through the devices, transforming along y in place (no transpose).
func (a *AsyncSlabReal) regionY(four []complex128, dir fft.Direction) {
	n, nxh, mz := a.n, a.nxh, a.s.MZ()
	defer a.met.pipeline.Start()()
	a.pipeline(func(ip, g int) pencilOps {
		xs := subRange(a.xr[ip], g, len(a.gpus))
		w := xs.width()
		if w == 0 {
			return pencilOps{}
		}
		ctx := a.gpus[g]
		return pencilOps{
			h2d: func(slot int) {
				cuda.Memcpy2DAsync(ctx.transfer, ctx.slots[slot], w,
					four[xs.lo:], nxh, w, mz*n)
			},
			compute: a.lineFFT(ctx, w, mz, dir),
			d2h: func(slot int) {
				cuda.Memcpy2DAsync(ctx.transfer, four[xs.lo:], nxh,
					ctx.slots[slot], w, w, mz*n)
			},
			h2dBytes: int64(16 * w * mz * n),
			d2hBytes: int64(16 * w * mz * n),
		}
	}, nil)
}

// regionTranspose is a dashed region of Fig 4, in either direction. YZ
// runs inverse y transforms on the Fourier slab in=[mz][ny][nxh] and
// exchanges it into the mid slab; ZY runs forward z transforms on
// in=a.mid=[my][nz][nxh] and exchanges it into a.four. The pack is fused
// into the D2H as strided copies into the send buffer (narrowing to the
// wire precision under SingleComm), split by destination along the
// transformed axis. Under Staged the all-to-all is posted per pencil as
// soon as its D2H completes (PerPencil) or once for the slab (PerSlab),
// and the received blocks are unpacked; the zero-copy strategies skip
// the wire entirely and gather from every peer's send buffer in place
// through the exchange stages.
func (a *AsyncSlabReal) regionTranspose(d exchange.Dir, in []complex128, fdir fft.Direction) {
	n, nxh, p := a.n, a.nxh, a.comm.Size()
	// ma planes are held locally; each is cut into p runs of mb rows.
	ma, mb := a.s.MZ(), a.s.MY()
	if d == exchange.ZY {
		ma, mb = mb, ma
	}
	var afterD2H func(ip int)
	if a.gran == PerPencil && a.strat == exchange.Staged {
		afterD2H = func(ip int) { a.reqs[ip] = a.wire.post(ip) }
	}
	stop := a.met.pipeline.Start()
	a.pipeline(func(ip, g int) pencilOps {
		xs := subRange(a.xr[ip], g, len(a.gpus))
		w := xs.width()
		if w == 0 {
			return pencilOps{}
		}
		u := ip
		if a.gran == PerSlab {
			u = 0
		}
		wp, off := a.xu[u].width(), xs.lo-a.xu[u].lo
		ctx := a.gpus[g]
		return pencilOps{
			h2dBytes: int64(16 * w * ma * n),
			d2hBytes: a.wireElem * int64(w*ma*n),
			h2d: func(slot int) {
				cuda.Memcpy2DAsync(ctx.transfer, ctx.slots[slot], w,
					in[xs.lo:], nxh, w, ma*n)
			},
			compute: a.lineFFT(ctx, w, ma, fdir),
			d2h: func(slot int) {
				// Fused pack+D2H (§3.4): one strided copy per
				// (destination, plane) into blocks [dst][ma][mb][wp] —
				// the call count grows with the rank count, the §5.2
				// effect.
				buf := ctx.slots[slot]
				for dst := 0; dst < p; dst++ {
					for i := 0; i < ma; i++ {
						a.wire.pack(ctx.transfer, u, (dst*ma+i)*mb*wp+off, wp,
							buf[(i*n+dst*mb)*w:], w, w, mb)
					}
				}
			},
		}
	}, afterD2H)
	stop()
	a.exchange(d, a.strat, afterD2H != nil)
}

// exchange moves the packed send buffer(s) into the direction's
// destination slab under st, outside the pipeline: this is both the
// tail of a transposing region and the tuner's trial body (buffer
// contents are irrelevant to timing). posted says the staged requests
// are already in flight from the pipeline's afterD2H hook and only need
// waiting on. Collective.
func (a *AsyncSlabReal) exchange(d exchange.Dir, st exchange.Strategy, posted bool) {
	if st != exchange.Staged {
		a.wire.gather(d, st)
		return
	}
	reqs := a.reqs[:len(a.xu)]
	stop := a.met.a2a.Start()
	if !posted {
		for u := range reqs {
			reqs[u] = a.wire.post(u)
		}
	}
	a.waitAll(reqs)
	stop()
	defer a.met.unpack.Start()()
	a.wire.unpack(d)
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

// regionZ streams x-split pencils of the mid slab [my][nz][nxh],
// transforming along z in place.
func (a *AsyncSlabReal) regionZ(dir fft.Direction) {
	n, nxh, my := a.n, a.nxh, a.s.MY()
	defer a.met.pipeline.Start()()
	a.pipeline(func(ip, g int) pencilOps {
		xs := subRange(a.xr[ip], g, len(a.gpus))
		w := xs.width()
		if w == 0 {
			return pencilOps{}
		}
		ctx := a.gpus[g]
		return pencilOps{
			h2d: func(slot int) {
				cuda.Memcpy2DAsync(ctx.transfer, ctx.slots[slot], w,
					a.mid[xs.lo:], nxh, w, my*n)
			},
			compute: a.lineFFT(ctx, w, my, dir),
			d2h: func(slot int) {
				cuda.Memcpy2DAsync(ctx.transfer, a.mid[xs.lo:], nxh,
					ctx.slots[slot], w, w, my*n)
			},
			h2dBytes: int64(16 * w * my * n),
			d2hBytes: int64(16 * w * my * n),
		}
	}, nil)
}

// regionXInverse streams z-split pencils of the mid slab through c2r
// transforms along x into the physical slab [my][nz][nx].
func (a *AsyncSlabReal) regionXInverse(phys []float64) {
	n, nxh, my := a.n, a.nxh, a.s.MY()
	defer a.met.pipeline.Start()()
	a.pipeline(func(ip, g int) pencilOps {
		zs := subRange(a.zr[ip], g, len(a.gpus))
		zw := zs.width()
		if zw == 0 {
			return pencilOps{}
		}
		ctx := a.gpus[g]
		return pencilOps{
			h2d: func(slot int) {
				cuda.Memcpy2DAsync(ctx.transfer, ctx.slots[slot], zw*nxh,
					a.mid[zs.lo*nxh:], n*nxh, zw*nxh, my)
			},
			compute: func(slot int) {
				cbuf, rbuf := ctx.slots[slot], ctx.rslots[slot]
				ctx.compute.Launch("fftx-c2r", func() {
					ctx.team.ForWorkers(my, func(wk, lo, hi int) {
						plan := ctx.plans[wk].RealBatch(n, zw, 1, n, 1, nxh)
						for iy := lo; iy < hi; iy++ {
							plan.Inverse(rbuf[iy*zw*n:(iy+1)*zw*n], cbuf[iy*zw*nxh:(iy+1)*zw*nxh])
						}
					})
				})
			},
			d2h: func(slot int) {
				cuda.Memcpy2DAsync(ctx.transfer, phys[zs.lo*n:], n*n,
					ctx.rslots[slot], zw*n, zw*n, my)
			},
			h2dBytes: int64(16 * my * zw * nxh),
			d2hBytes: int64(8 * my * zw * n),
		}
	}, nil)
}

// regionXForward streams z-split pencils of the physical slab through
// r2c transforms along x into the mid slab.
func (a *AsyncSlabReal) regionXForward(phys []float64) {
	n, nxh, my := a.n, a.nxh, a.s.MY()
	defer a.met.pipeline.Start()()
	a.pipeline(func(ip, g int) pencilOps {
		zs := subRange(a.zr[ip], g, len(a.gpus))
		zw := zs.width()
		if zw == 0 {
			return pencilOps{}
		}
		ctx := a.gpus[g]
		return pencilOps{
			h2d: func(slot int) {
				cuda.Memcpy2DAsync(ctx.transfer, ctx.rslots[slot], zw*n,
					phys[zs.lo*n:], n*n, zw*n, my)
			},
			compute: func(slot int) {
				cbuf, rbuf := ctx.slots[slot], ctx.rslots[slot]
				ctx.compute.Launch("fftx-r2c", func() {
					ctx.team.ForWorkers(my, func(wk, lo, hi int) {
						plan := ctx.plans[wk].RealBatch(n, zw, 1, n, 1, nxh)
						for iy := lo; iy < hi; iy++ {
							plan.Forward(cbuf[iy*zw*nxh:(iy+1)*zw*nxh], rbuf[iy*zw*n:(iy+1)*zw*n])
						}
					})
				})
			},
			d2h: func(slot int) {
				cuda.Memcpy2DAsync(ctx.transfer, a.mid[zs.lo*nxh:], n*nxh,
					ctx.slots[slot], zw*nxh, zw*nxh, my)
			},
			h2dBytes: int64(8 * my * zw * n),
			d2hBytes: int64(16 * my * zw * nxh),
		}
	}, nil)
}

// lineFFT returns a compute launcher running nplanes strided line
// transforms of width w on the slot buffer, split across the device's
// worker team (the hybrid MPI+OpenMP batch loop). Planes are
// independent and every worker runs an identical plan, so the output
// is bitwise invariant under the team size.
func (a *AsyncSlabReal) lineFFT(ctx *gpuCtx, w, nplanes int, dir fft.Direction) func(slot int) {
	n := a.n
	return func(slot int) {
		buf := ctx.slots[slot]
		ctx.compute.Launch("fft-line", func() {
			ctx.team.ForWorkers(nplanes, func(wk, lo, hi int) {
				plan := ctx.plans[wk].Batch(n, w, w, 1, w, 1)
				for pl := lo; pl < hi; pl++ {
					plane := buf[pl*n*w : (pl+1)*n*w]
					if dir == fft.Forward {
						plan.Forward(plane, plane)
					} else {
						plan.Inverse(plane, plane)
					}
				}
			})
		})
	}
}

// pencilOps are the three per-pencil stages a region supplies; any may
// be nil (zero-width sub-pencil on this device). The byte fields carry
// the wire size each transfer stage moves, for direction-labelled
// accounting (gpu.h2d.bytes / gpu.d2h.bytes).
type pencilOps struct {
	h2d      func(slot int)
	compute  func(slot int)
	d2h      func(slot int)
	h2dBytes int64
	d2hBytes int64
}

// pencilEvs are the inter-stream ordering events of one (pencil,
// device) cell of the pipeline; the matrix is hoisted to construction
// and zeroed per region so the hot path does not allocate.
type pencilEvs struct{ h2d, comp, d2h *cuda.Event }

// pipeline drives np pencils through every device with the Fig 4
// launch order: D2H of the previous pencil first (prioritizing copies
// out of the GPU so exchanges can start early), then compute of the
// current pencil, then H2D of the next, with events ordering across
// the two streams and three rotating device slots. afterD2H, when
// non-nil, is invoked on the host once pencil ip's D2H has completed
// on every device — two pencils behind the launch frontier, the
// (ip−2) rule of Fig 4 — and is the hook that posts the per-pencil
// MPI_IALLTOALL.
//
//psdns:hotpath
func (a *AsyncSlabReal) pipeline(ops func(ip, g int) pencilOps, afterD2H func(ip int)) {
	ngpu := len(a.gpus)
	state, pops := a.pstate, a.pops
	for ip := 0; ip < a.np; ip++ {
		for g := 0; g < ngpu; g++ {
			state[ip][g] = pencilEvs{}
			pops[ip][g] = ops(ip, g)
		}
	}
	launchH2D := func(ip int) {
		for g := 0; g < ngpu; g++ {
			if pops[ip][g].h2d == nil {
				continue
			}
			pops[ip][g].h2d(ip % 3)
			a.met.h2d.Add(pops[ip][g].h2dBytes)
			state[ip][g].h2d = a.gpus[g].transfer.Record()
		}
	}
	launchD2H := func(ip int) {
		for g := 0; g < ngpu; g++ {
			if pops[ip][g].d2h == nil {
				continue
			}
			a.gpus[g].transfer.Wait(state[ip][g].comp)
			pops[ip][g].d2h(ip % 3)
			a.met.d2h.Add(pops[ip][g].d2hBytes)
			state[ip][g].d2h = a.gpus[g].transfer.Record()
		}
	}
	waitD2H := func(ip int) {
		for g := 0; g < ngpu; g++ {
			if ev := state[ip][g].d2h; ev != nil {
				ev.Synchronize()
			}
		}
	}

	launchH2D(0)
	for ip := 0; ip < a.np; ip++ {
		if ip > 0 {
			launchD2H(ip - 1)
		}
		for g := 0; g < ngpu; g++ {
			if pops[ip][g].compute == nil {
				continue
			}
			a.gpus[g].compute.Wait(state[ip][g].h2d)
			pops[ip][g].compute(ip % 3)
			state[ip][g].comp = a.gpus[g].compute.Record()
		}
		if ip+1 < a.np {
			launchH2D(ip + 1)
		}
		if afterD2H != nil && ip >= 2 {
			waitD2H(ip - 2)
			afterD2H(ip - 2)
		}
	}
	launchD2H(a.np - 1)
	for ip := max(0, a.np-2); ip < a.np; ip++ {
		waitD2H(ip)
		if afterD2H != nil {
			afterD2H(ip)
		}
	}
	// A region ends when both streams of every device have drained.
	for _, g := range a.gpus {
		g.transfer.Synchronize()
		g.compute.Synchronize()
	}
}

// wait blocks on one all-to-all request, bounding the block by the
// engine's wait deadline when one is configured.
//
//psdns:hotpath
func (a *AsyncSlabReal) wait(r *mpi.Request) {
	if a.waitDeadline > 0 {
		r.WaitWithin(a.waitDeadline)
		return
	}
	r.Wait()
}

// waitAll waits on every per-pencil request in order, each under the
// engine's wait deadline.
//
//psdns:hotpath
func (a *AsyncSlabReal) waitAll(reqs []*mpi.Request) {
	for _, r := range reqs {
		a.wait(r)
	}
}
