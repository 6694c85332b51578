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

// SlabC2C performs distributed complex 3D FFTs on a 1D slab
// decomposition. FourierToPhysical applies inverse transforms in the
// paper's y, z, x order (one all-to-all between y and z);
// PhysicalToFourier applies forward transforms in x, z, y order.
type SlabC2C struct {
	comm *mpi.Comm
	s    grid.Slab
	n    int
	by   *fft.Batch // y transforms on the Fourier-side slab (per z-plane)
	bz   *fft.Batch // z transforms on the physical-side slab (per y-plane)
	bx   *fft.Batch // x transforms on the physical-side slab (per y-plane)
	pack []complex128
	recv []complex128
}

// NewSlabC2C builds the plans and communication buffers for an N³
// transform over the ranks of comm.
func NewSlabC2C(comm *mpi.Comm, n int) *SlabC2C {
	s := grid.NewSlab(n, comm.Size(), comm.Rank())
	f := &SlabC2C{
		comm: comm,
		s:    s,
		n:    n,
		by:   fft.NewBatch(n, n, n, 1, n, 1), // along y, x fastest
		bz:   fft.NewBatch(n, n, n, 1, n, 1), // along z, x fastest
		bx:   fft.NewBatch(n, n, 1, n, 1, n), // along x, contiguous
		pack: make([]complex128, s.MZ()*n*n),
		recv: make([]complex128, s.MZ()*n*n),
	}
	return f
}

// Slab reports the decomposition geometry.
func (f *SlabC2C) Slab() grid.Slab { return f.s }

// LocalLen is the number of complex elements in one local slab.
func (f *SlabC2C) LocalLen() int { return f.s.MZ() * f.n * f.n }

// FourierToPhysical transforms the z-distributed Fourier slab
// four=[mz][ny][nx] into the y-distributed physical slab
// phys=[my][nz][nx], applying the 1/N³ normalization.
func (f *SlabC2C) FourierToPhysical(phys, four []complex128) {
	n, mz, my := f.n, f.s.MZ(), f.s.MY()
	f.checkLen(phys, four)
	// 1) inverse FFT along y, plane by plane.
	for iz := 0; iz < mz; iz++ {
		plane := four[iz*n*n : (iz+1)*n*n]
		f.by.Inverse(plane, plane)
	}
	// 2) pack y→z, all-to-all, unpack.
	transpose.PackYZ(f.pack, four, n, n, mz, f.comm.Size())
	mpi.Alltoall(f.comm, f.pack, f.recv)
	transpose.UnpackYZ(phys, f.recv, n, n, my, f.comm.Size())
	// 3) inverse FFT along z, then x, per y-plane.
	for iy := 0; iy < my; iy++ {
		plane := phys[iy*n*n : (iy+1)*n*n]
		f.bz.Inverse(plane, plane)
		f.bx.Inverse(plane, plane)
	}
}

// PhysicalToFourier transforms the y-distributed physical slab
// phys=[my][nz][nx] into the z-distributed Fourier slab
// four=[mz][ny][nx], unnormalized (the exact adjoint ordering x, z, y
// of FourierToPhysical).
func (f *SlabC2C) PhysicalToFourier(four, phys []complex128) {
	n, mz, my := f.n, f.s.MZ(), f.s.MY()
	f.checkLen(phys, four)
	for iy := 0; iy < my; iy++ {
		plane := phys[iy*n*n : (iy+1)*n*n]
		f.bx.Forward(plane, plane)
		f.bz.Forward(plane, plane)
	}
	transpose.PackZY(f.pack, phys, n, n, my, f.comm.Size())
	mpi.Alltoall(f.comm, f.pack, f.recv)
	transpose.UnpackZY(four, f.recv, n, n, mz, f.comm.Size())
	for iz := 0; iz < mz; iz++ {
		plane := four[iz*n*n : (iz+1)*n*n]
		f.by.Forward(plane, plane)
	}
}

func (f *SlabC2C) checkLen(phys, four []complex128) {
	if len(phys) != f.LocalLen() || len(four) != f.LocalLen() {
		panic(fmt.Sprintf("pfft: slab buffers need %d elements, got phys %d four %d",
			f.LocalLen(), len(phys), len(four)))
	}
}

// SlabReal is the DNS transform pair: real physical fields, conjugate-
// symmetric half-spectra (nxh = n/2+1 in x) in Fourier space.
//
// It is FFT passes around one transpose-exchange stage: each rank owns
// a persistent par.Team that splits the y/z/x FFT batch loops across
// workers, with one set of FFT plans per worker (plans carry scratch
// and are not concurrency-safe), and an exchange.Stage that moves the
// slab between the Fourier-side [mz][ny][nxh] and physical-side
// [my][nz][nxh] layouts under the pinned per-direction strategy.
// Results are bitwise identical for any team size and any concrete
// strategy, because the plane-level work units are independent and
// executed by identical plans.
//
// The steady-state transform path performs zero heap allocations: the
// mid buffer comes from the process buffer arena at plan time, the
// stage's plans are persistent, the worker bodies are precomputed
// closures dispatched through the reusable team, and phase timings use
// allocation-free ObserveSince instrumentation.
type SlabReal struct {
	comm *mpi.Comm
	s    grid.Slab
	n    int
	nxh  int
	team *par.Team
	by   []*fft.Batch     // per worker: along y on [mz][ny][nxh]
	bz   []*fft.Batch     // per worker: along z on [my][nz][nxh]
	bx   []*fft.RealBatch // per worker: half-spectrum ↔ real line
	mid  []complex128     // [my][nz][nxh] intermediate

	// Exactly one stage exists, at the precision the exchange ships.
	// On the single-precision wire (the paper's production format) the
	// FFT passes still compute in float64; a narrow pass in front of the
	// stage and a widen pass behind it bracket every strategy, so the
	// wire — staged blocks or zero-copy gathers alike — carries half the
	// bytes for ~1e-7 relative rounding per transform.
	st     *exchange.Stage[complex128]
	wire   *exchange.Stage[complex64]
	four32 []complex64 // narrowed Fourier-side slab [mz][ny][nxh]
	mid32  []complex64 // narrowed physical-side slab [my][nz][nxh]

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

	invYBody, fwdYBody            func(w, lo, hi int) // over iz planes
	invZXBody, fwdXZBody          func(w, lo, hi int) // over iy planes
	narrowFourBody, widenFourBody func(w, lo, hi int) // over iz planes
	narrowMidBody, widenMidBody   func(w, lo, hi int) // over iy planes
}

// NewSlabReal builds the DNS transform for an N³ real field (even N)
// with a single worker per rank.
func NewSlabReal(comm *mpi.Comm, n int) *SlabReal {
	return NewSlabRealWorkers(comm, n, 1)
}

// NewSlabRealWorkers builds the DNS transform with a team of workers
// per rank (workers ≥ 1) — the paper's hybrid MPI+OpenMP layer —
// autotuning the transpose-exchange strategy at plan time. Collective:
// every rank must construct the transform at the same point in its
// collective order (the stage's persistent plans register state across
// ranks, and the autotuner runs collective trials).
func NewSlabRealWorkers(comm *mpi.Comm, n, workers int) *SlabReal {
	return NewSlabRealStrategy(comm, n, workers, exchange.Auto)
}

// NewSlabRealStrategy builds the DNS transform with an explicit
// transpose-exchange strategy. exchange.Auto times every concrete
// strategy per direction at the actual (N, P, workers) — the
// NewSlabRealTuned trial loop over the default space, with no cache —
// and pins the collectively-agreed winners; a concrete strategy skips
// the trials and pins that strategy on every rank. Collective.
func NewSlabRealStrategy(comm *mpi.Comm, n, workers int, strat exchange.Strategy) *SlabReal {
	switch strat {
	case exchange.AT:
		panic("pfft: exchange.AT needs a staleness bound; use NewSlabRealAT")
	case exchange.Auto:
		return NewSlabRealTuned(comm, n, workers, tuning.Config{})
	}
	return newSlabReal(comm, n, workers, exchange.Both(strat), nil, false)
}

// NewSlabRealSingle builds the DNS transform on the single-precision
// wire: FFT stages compute in float64, but every transpose-exchange
// narrows the moving slab to complex64 first — half the bytes through
// pack/exchange/unpack for ~1e-7 relative rounding per transform, the
// paper's production wire format. The exchange strategies are autotuned
// over the complex64 path at plan time. Collective.
func NewSlabRealSingle(comm *mpi.Comm, n, workers int) *SlabReal {
	return NewSlabRealTuned(comm, n, workers, tuning.Config{Space: tuning.Space{Single: []bool{true}}})
}

// NewSlabRealAT builds the DNS transform on the asynchrony-tolerant
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
	return newSlabReal(comm, n, workers, exchange.Both(exchange.AT),
		&exchange.Bound{MaxStale: maxStale, Deadline: deadline}, false)
}

// newSlabReal builds the engine with pair pinned (both concrete, or
// both AT with a bound). single is a constructor parameter, identical
// on every rank, so the collective registration order stays uniform.
func newSlabReal(comm *mpi.Comm, n, workers int, pair exchange.Pair, bound *exchange.Bound, single bool) *SlabReal {
	if n%2 != 0 {
		panic(fmt.Sprintf("pfft: SlabReal requires even N, got %d", n))
	}
	if single && bound != nil {
		panic("pfft: the single-precision pipeline does not support the asynchrony-tolerant exchange")
	}
	s := grid.NewSlab(n, comm.Size(), comm.Rank())
	nxh := n/2 + 1
	f := &SlabReal{
		comm: comm,
		s:    s,
		n:    n,
		nxh:  nxh,
		team: par.NewTeam(workers),
		mid:  pool.GetComplex(s.MY() * n * nxh),
		fftT: comm.Metrics().HistogramRank("phase.fft", comm.Rank()),
		ph:   exchange.NewPhases(comm.Metrics(), comm.Rank()),
	}
	for w := 0; w < workers; w++ {
		f.by = append(f.by, fft.NewBatch(n, nxh, nxh, 1, nxh, 1))
		f.bz = append(f.bz, fft.NewBatch(n, nxh, nxh, 1, nxh, 1))
		f.bx = append(f.bx, fft.NewRealBatch(n, n, 1, n, 1, nxh))
	}
	// Staging slabs and the stage exist only in the precision the
	// exchange ships.
	l := transpose.NewSlabLayout(nxh, n, s.MZ(), comm.Size())
	if single {
		f.four32 = pool.GetComplex64(l.Total)
		f.mid32 = pool.GetComplex64(l.Total)
		f.wire = exchange.NewStage(comm, f.team, f.ph, l.Total, l.Total, nil, slabKernels[complex64](&l, comm.Rank()))
	} else {
		f.st = exchange.NewStage(comm, f.team, f.ph, l.Total, l.Total, bound, slabKernels[complex128](&l, comm.Rank()))
	}
	f.buildBodies()
	f.setStrategies(pair)
	return f
}

// slabKernels describes the slab transpose to a stage: YZ moves the
// Fourier-side slab into the physical-side layout (split over iz on
// the source side, iy on the destination side), ZY is the mirror. All
// gathers run the cache-blocked variants (bitwise-identical, tiled
// traversal) so the strided side stops thrashing at N ≥ 128. The
// kernels are generic, so the same code moves both wire precisions.
//
//psdns:hotpath
func slabKernels[T exchange.Elem](l *transpose.SlabLayout, me int) [2]exchange.Kernels[T] {
	const tile = transpose.DefaultGatherTile
	return [2]exchange.Kernels[T]{
		exchange.YZ: {
			PackUnits: l.Mz, DstUnits: l.My, PeerUnits: l.My,
			Pack:   func(pack, src []T, lo, hi int) { transpose.PackYZRange(l, pack, src, lo, hi) },
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
			Unpack: func(dst, recv []T, lo, hi int) { transpose.UnpackZYRange(l, dst, recv, lo, hi) },
			Gather: func(dst []T, srcs [][]T, lo, hi int) {
				transpose.GatherZYRangeBlocked(l, dst, srcs, me, lo, hi, tile)
			},
			GatherPeer: func(dst, src []T, peer, lo, hi int) {
				transpose.GatherZYPeerBlocked(l, dst, src, me, peer, lo, hi, tile)
			},
		},
	}
}

// publishStrategies sets the per-direction strategy gauges of rank:
// exchange.strategy carries the y→z code (the PR-5 gauge, unchanged),
// exchange.strategy.zy the z→y code.
func publishStrategies(r *metrics.Registry, rank int, pair exchange.Pair) {
	r.GaugeRank("exchange.strategy", rank).Set(pair.YZ.Code())
	r.GaugeRank("exchange.strategy.zy", rank).Set(pair.ZY.Code())
}

// setStrategies pins the per-direction strategies and publishes them.
func (f *SlabReal) setStrategies(pair exchange.Pair) {
	f.pair = pair
	publishStrategies(f.comm.Metrics(), f.comm.Rank(), pair)
}

// buildBodies precomputes the team worker closures once, so transform
// calls dispatch them with zero allocations. The closure bodies are
// the per-plane transform kernels, annotated hot so the analyzer
// checks inside them even though the closures are built at plan time.
//
//psdns:hotpath
func (f *SlabReal) buildBodies() {
	n, nxh := f.n, f.nxh
	f.invYBody = func(w, lo, hi int) {
		for iz := lo; iz < hi; iz++ {
			plane := f.curFour[iz*n*nxh : (iz+1)*n*nxh]
			f.by[w].Inverse(plane, plane)
		}
	}
	f.fwdYBody = func(w, lo, hi int) {
		for iz := lo; iz < hi; iz++ {
			plane := f.curFour[iz*n*nxh : (iz+1)*n*nxh]
			f.by[w].Forward(plane, plane)
		}
	}
	f.invZXBody = func(w, lo, hi int) {
		for iy := lo; iy < hi; iy++ {
			plane := f.mid[iy*n*nxh : (iy+1)*n*nxh]
			f.bz[w].Inverse(plane, plane)
			// complex-to-real along x: [nz][nxh] → [nz][nx].
			f.bx[w].Inverse(f.curPhys[iy*n*n:(iy+1)*n*n], plane)
		}
	}
	f.fwdXZBody = func(w, lo, hi int) {
		for iy := lo; iy < hi; iy++ {
			plane := f.mid[iy*n*nxh : (iy+1)*n*nxh]
			f.bx[w].Forward(plane, f.curPhys[iy*n*n:(iy+1)*n*n])
			f.bz[w].Forward(plane, plane)
		}
	}
	if f.wire == nil {
		return
	}
	// Strided narrow/widen passes bracketing the single-precision
	// stage. pl is the elements per z-plane on the Fourier side and per
	// y-plane on the physical side.
	pl := n * nxh
	f.narrowFourBody = func(_, lo, hi int) {
		transpose.NarrowStrided(f.four32[lo*pl:], pl, f.curFour[lo*pl:], pl, pl, hi-lo)
	}
	f.widenFourBody = func(_, lo, hi int) {
		transpose.WidenStrided(f.curFour[lo*pl:], pl, f.four32[lo*pl:], pl, pl, hi-lo)
	}
	f.narrowMidBody = func(_, lo, hi int) {
		transpose.NarrowStrided(f.mid32[lo*pl:], pl, f.mid[lo*pl:], pl, pl, hi-lo)
	}
	f.widenMidBody = func(_, lo, hi int) {
		transpose.WidenStrided(f.mid[lo*pl:], pl, f.mid32[lo*pl:], pl, pl, hi-lo)
	}
}

// Slab reports the decomposition geometry.
func (f *SlabReal) Slab() grid.Slab { return f.s }

// NXH is the stored x extent of the half-spectrum, N/2+1.
func (f *SlabReal) NXH() int { return f.nxh }

// FourierLen is the complex element count of one local Fourier slab.
func (f *SlabReal) FourierLen() int { return f.s.MZ() * f.n * f.nxh }

// PhysicalLen is the real element count of one local physical slab.
func (f *SlabReal) PhysicalLen() int { return f.s.MY() * f.n * f.n }

// Workers reports the worker-team size.
func (f *SlabReal) Workers() int { return f.team.Size() }

// Close releases the worker team, the stage and every pooled buffer
// back to the arena. The transform must not be used afterwards. Safe
// to call once per rank, in any order across ranks.
func (f *SlabReal) Close() {
	if f.closed {
		return
	}
	f.closed = true
	f.team.Close()
	for w := range f.by {
		f.by[w].Release()
		f.bz[w].Release()
		f.bx[w].Release()
	}
	if f.wire != nil {
		f.wire.Close()
		pool.PutComplex64(f.four32)
		pool.PutComplex64(f.mid32)
		f.four32, f.mid32 = nil, nil
	} else {
		f.st.Close()
	}
	pool.PutComplex(f.mid)
	f.mid = nil
}

// FourierToPhysical transforms four=[mz][ny][nxh] (complex) into
// phys=[my][nz][nx] (real), with 1/N³ normalization. four is consumed
// as scratch.
//
//psdns:hotpath
func (f *SlabReal) FourierToPhysical(phys []float64, four []complex128) {
	f.checkLen(phys, four)
	f.curFour, f.curPhys = four, phys
	t := time.Now()
	f.team.ForWorkers(f.s.MZ(), f.invYBody)
	f.fftT.ObserveSince(t)
	f.exchange(exchange.YZ, f.pair.YZ)
	t = time.Now()
	f.team.ForWorkers(f.s.MY(), f.invZXBody)
	f.fftT.ObserveSince(t)
	f.curFour, f.curPhys = nil, nil
}

// PhysicalToFourier transforms phys=[my][nz][nx] (real) into
// four=[mz][ny][nxh] (complex), unnormalized.
//
//psdns:hotpath
func (f *SlabReal) PhysicalToFourier(four []complex128, phys []float64) {
	f.checkLen(phys, four)
	f.curFour, f.curPhys = four, phys
	t := time.Now()
	f.team.ForWorkers(f.s.MY(), f.fwdXZBody)
	f.fftT.ObserveSince(t)
	f.exchange(exchange.ZY, f.pair.ZY)
	t = time.Now()
	f.team.ForWorkers(f.s.MZ(), f.fwdYBody)
	f.fftT.ObserveSince(t)
	f.curFour, f.curPhys = nil, nil
}

func (f *SlabReal) checkLen(phys []float64, four []complex128) {
	if len(four) != f.FourierLen() || len(phys) != f.PhysicalLen() {
		panic(fmt.Sprintf("pfft: real slab wants four %d phys %d, got %d %d",
			f.FourierLen(), f.PhysicalLen(), len(four), len(phys)))
	}
}

// exchange runs one transpose-exchange under st: YZ moves the
// y-transformed Fourier slab (f.curFour) into the physical-side layout
// (f.mid), ZY moves f.mid back into f.curFour. On the single-precision
// wire the source is narrowed first (timed as pack) and the
// destination widened after (timed as unpack).
//
//psdns:hotpath
func (f *SlabReal) exchange(d exchange.Dir, st exchange.Strategy) {
	mz, my := f.s.MZ(), f.s.MY()
	switch {
	case f.wire == nil && d == exchange.YZ:
		f.st.Run(d, st, f.curFour, f.mid)
	case f.wire == nil:
		f.st.Run(d, st, f.mid, f.curFour)
	case d == exchange.YZ:
		t := time.Now()
		f.team.ForWorkers(mz, f.narrowFourBody)
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
		f.team.ForWorkers(mz, f.widenFourBody)
		f.ph.Unpack.ObserveSince(t)
	}
}

// runTrial executes one exchange of direction d under st on the trial
// slab, without FFT stages. Collective (every strategy's exchange is
// bracketed by plan barriers).
func (f *SlabReal) runTrial(d exchange.Dir, st exchange.Strategy, four []complex128) {
	f.curFour = four
	f.exchange(d, st)
	f.curFour = nil
}

// ExchangeYZ performs only the y→z transpose-exchange of four into the
// internal physical-side buffer, using the pinned strategy. This is
// the isolated exchange kernel the bench harness pins per strategy;
// the transform entry points go through the same path.
//
//psdns:hotpath
func (f *SlabReal) ExchangeYZ(four []complex128) {
	if len(four) != f.FourierLen() {
		panic(fmt.Sprintf("pfft: ExchangeYZ wants %d elements, got %d", f.FourierLen(), len(four)))
	}
	f.curFour = four
	f.exchange(exchange.YZ, f.pair.YZ)
	f.curFour = nil
}

// Strategy reports the pinned y→z transpose-exchange strategy (never
// exchange.Auto: autotuned plans report the winner).
func (f *SlabReal) Strategy() exchange.Strategy { return f.pair.YZ }

// StrategyZY reports the pinned z→y transpose-exchange strategy; it
// can differ from Strategy because the two directions stream mirrored
// access patterns and are tuned independently.
func (f *SlabReal) StrategyZY() exchange.Strategy { return f.pair.ZY }

// StrategyPair reports both pinned strategies as an exchange.Pair.
func (f *SlabReal) StrategyPair() exchange.Pair { return f.pair }

// Single reports whether the transform ships its exchanges through the
// single-precision wire pipeline.
func (f *SlabReal) Single() bool { return f.wire != nil }

// SetATSite labels the quantity the next bounded exchanges carry (see
// exchange.Stage.SetATSite). No-op on non-AT transforms.
func (f *SlabReal) SetATSite(site uint32) {
	if f.st != nil {
		f.st.SetATSite(site)
	}
}

// TakeStaleness drains the asynchrony-tolerant staleness window since
// the previous take (see exchange.Stage.TakeStaleness). All zeros on
// non-AT transforms.
func (f *SlabReal) TakeStaleness() (max int, sum, slabs, calls int64) {
	if f.st == nil {
		return 0, 0, 0, 0
	}
	return f.st.TakeStaleness()
}
