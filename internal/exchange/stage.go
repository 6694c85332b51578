package exchange

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/par"
	"repro/internal/pool"
	"repro/internal/transpose"
)

// Elem is the element type a transpose-exchange moves: complex128 on
// the double-precision wire, complex64 on the paper's single-precision
// production wire.
type Elem interface{ complex128 | complex64 }

// Alloc checks a wire-typed buffer of n elements out of the process
// buffer arena; Release returns it.
func Alloc[T Elem](n int) []T {
	if _, single := any((*T)(nil)).(*complex64); single {
		return any(pool.GetComplex64(n)).([]T)
	}
	return any(pool.GetComplex(n)).([]T)
}

// Release returns a buffer obtained from Alloc to the arena.
func Release[T Elem](buf []T) {
	switch b := any(buf).(type) {
	case []complex64:
		pool.PutComplex64(b)
	case []complex128:
		pool.PutComplex(b)
	}
}

// Dir indexes the two mirrored directions of a stage, named as in
// Pair: YZ is the exchange of the Fourier→physical transform, ZY the
// one of the physical→Fourier transform.
type Dir int

const (
	YZ Dir = iota
	ZY
)

// Phases are the per-rank phase histograms an exchange is timed into,
// matching the span classes of the paper's Fig 10 timeline: pack
// (reordering into send blocks), the all-to-all itself, and unpack.
// Zero-copy strategies land wholly in A2A. Nil histograms are skipped.
type Phases struct {
	Pack, A2A, Unpack *metrics.Histogram
}

// NewPhases returns the phase.{pack,a2a,unpack} histograms of rank.
// Sub-communicators share the world's registry, so engines spanning a
// process grid pass a grid-global rank rather than a sub-communicator
// rank that would collide across groups.
func NewPhases(r *metrics.Registry, rank int) Phases {
	return Phases{
		Pack:   r.HistogramRank("phase.pack", rank),
		A2A:    r.HistogramRank("phase.a2a", rank),
		Unpack: r.HistogramRank("phase.unpack", rank),
	}
}

// Kernels describes one direction of a stage by its layout kernels —
// the only thing that differs between a slab transpose, the column and
// row exchanges of a pencil grid and the per-pencil blocks of the
// batched pipeline. Every kernel works on a half-open range of
// destination-disjoint units so the stage can split it across the
// worker team; src and dst are the slabs handed to Run, passed through
// untouched (an engine whose destination is not wire-typed — the
// batched pipeline widens as it gathers — runs with a nil dst and lets
// its kernels address the destination themselves).
type Kernels[T Elem] struct {
	// PackUnits splits Pack (source-side units); DstUnits splits Unpack
	// and Gather; PeerUnits splits GatherPeer.
	PackUnits, DstUnits, PeerUnits int
	// Pack reorders src into the per-destination blocks of pack, Unpack
	// scatters the received blocks into dst: the Staged path.
	Pack   func(pack, src []T, lo, hi int)
	Unpack func(dst, recv []T, lo, hi int)
	// Gather reads every rank's published slab in place (Fused, AT);
	// GatherPeer reads one peer's (ChunkedFused rounds).
	Gather     func(dst []T, srcs [][]T, lo, hi int)
	GatherPeer func(dst, src []T, peer, lo, hi int)
	// Sizes, when set, reports what one exchange moves under the
	// kernels' current layout: remote, the elements a zero-copy gather
	// reads from the other ranks' slabs, and block, the elements of one
	// staged block. Nil is the whole published slab's off-diagonal share
	// and stagedLen/P.
	Sizes func() (remote, block int)
}

// SlabKernels describes the slab transpose over l to a stage: YZ moves
// the Fourier-side slab into the physical-side layout (split over iz on
// the source side, iy on the destination side), ZY is the mirror. It is
// the one description of that transpose: pfft's row exchange runs it
// once per exchange unit, l being the unit's Range (the whole slab at
// one exchange per slab). All gathers run the cache-blocked variants
// (bitwise-identical, tiled traversal) so the strided side stops
// thrashing at N ≥ 128. The kernels are generic, so the same code moves
// both wire precisions, and read the band from l on every call — their
// Sizes too — so a SetBand reaches them without rebuilding anything.
//
//psdns:hotpath
func SlabKernels[T Elem](l *transpose.SlabLayout, me int) [2]Kernels[T] {
	const tile = transpose.DefaultGatherTile
	return [2]Kernels[T]{
		YZ: {
			PackUnits: l.Planes(true), DstUnits: l.My, PeerUnits: l.My,
			Pack:   func(pack, src []T, lo, hi int) { transpose.PackYZRange(l, pack, src, me, lo, hi) },
			Unpack: func(dst, recv []T, lo, hi int) { transpose.UnpackYZRange(l, dst, recv, lo, hi) },
			Gather: func(dst []T, srcs [][]T, lo, hi int) {
				transpose.GatherYZRangeBlocked(l, dst, srcs, me, lo, hi, tile)
			},
			GatherPeer: func(dst, src []T, peer, lo, hi int) {
				transpose.GatherYZPeerBlocked(l, dst, src, me, peer, lo, hi, tile)
			},
			Sizes: func() (int, int) { return l.RemoteElems(me, true), l.BlockLen(true) },
		},
		ZY: {
			PackUnits: l.Planes(false), DstUnits: l.Mz, PeerUnits: l.Mz,
			Pack:   func(pack, src []T, lo, hi int) { transpose.PackZYRange(l, pack, src, lo, hi) },
			Unpack: func(dst, recv []T, lo, hi int) { transpose.UnpackZYRange(l, dst, recv, me, lo, hi) },
			Gather: func(dst []T, srcs [][]T, lo, hi int) {
				transpose.GatherZYRangeBlocked(l, dst, srcs, me, lo, hi, tile)
			},
			GatherPeer: func(dst, src []T, peer, lo, hi int) {
				transpose.GatherZYPeerBlocked(l, dst, src, me, peer, lo, hi, tile)
			},
			Sizes: func() (int, int) { return l.RemoteElems(me, false), l.BlockLen(false) },
		},
	}
}

// Bound makes a stage asynchrony-tolerant: every exchange runs through
// DoBounded with MaxStale (in exchange epochs of its direction) and the
// per-plan Deadline. See mpi.NewExchangePlanBounded.
type Bound struct {
	MaxStale int
	Deadline time.Duration
}

// Stage is the one transpose-exchange of the code base: pack,
// all-to-all, unpack over one communicator, in either direction, under
// any Strategy, at wire precision T. It owns everything an exchange
// needs besides the data — the staged pack/recv blocks, the
// mpi.ExchangePlans every strategy runs through, the
// asynchrony-tolerant site label and staleness window, the phase
// timers — and the single switch that executes a direction under a
// strategy. The transform engine (pfft.SlabReal) is FFT passes and
// scheduling around stages: one per plane-group unit of its row
// exchange, and on a Pr×Pc grid one for its column exchange.
//
// Plan ownership: a synchronous stage registers one ExchangePlan and
// serves both directions and every strategy from it (the plan's
// barriers serialize them): Staged publishes the pack blocks and
// gathers them by block copy, the zero-copy strategies publish the
// source slab and gather it in place. A bounded stage registers one
// plan per direction, because the two
// directions are heterogeneous exchanges: with separate epoch streams a
// stale slab is always an older publication of the same direction,
// never the other direction's slab read in the wrong layout.
//
// The steady state performs zero heap allocations: the team bodies and
// gather callbacks are built once at construction and reference the
// per-call operands through the staging fields below. Not safe for
// concurrent use; every method that exchanges is collective.
type Stage[T Elem] struct {
	team *par.Team
	ph   Phases
	pack []T
	recv []T
	// plans[d] serves direction d; both entries are the same plan on a
	// synchronous stage.
	plans [2]*mpi.ExchangePlan[T]
	// p is the communicator size; remote and block are what an exchange
	// moves when its kernels carry no Sizes: the whole published slab's
	// off-diagonal share, and a staged block of stagedLen/P.
	p, remote, block int
	bound            *Bound
	site             uint32
	dirs             [2]dirBodies[T]
	// copyBlocks is the staged gather: recv block s ← block me of rank
	// s's published pack buffer, blk elements each.
	copyBlocks func(srcs [][]T)

	// Staging fields: Run publishes the current operands here for the
	// prebuilt bodies — the staged block size included; the gather
	// callbacks add the peer slab table and the peer of a chunked round.
	src     []T
	dst     []T
	srcs    [][]T
	peer    int
	peerSrc []T
	blk     int
}

// dirBodies are one direction's kernels wrapped as team bodies, plus
// the gather callbacks handed to the plans.
type dirBodies[T Elem] struct {
	Kernels[T]
	pack, unpack, gather, gatherPeer func(w, lo, hi int)
	fused, chunked                   func(srcs [][]T)
}

// NewStage registers a stage over comm whose kernels run on team (the
// stage borrows the team; the engine closes it). stagedLen is the
// element count of the pack and recv staging buffers — P equal blocks,
// or room for the P blocks of the kernels' largest Sizes — and is zero
// for a stage that runs only the zero-copy strategies. slabLen is the element count of
// the slab each rank publishes to the zero-copy strategies. A non-nil
// bound makes the stage asynchrony-tolerant: it runs exchange.AT only,
// so it takes no staging buffers. Collective: every rank must construct
// the stage at the same point in comm's collective order.
func NewStage[T Elem](comm *mpi.Comm, team *par.Team, ph Phases, stagedLen, slabLen int, bound *Bound, dirs [2]Kernels[T]) *Stage[T] {
	p := comm.Size()
	if stagedLen%p != 0 || (bound != nil && stagedLen > 0) {
		panic(fmt.Sprintf("exchange: %d staging elements invalid for %d ranks (a bounded stage takes none)", stagedLen, p))
	}
	s := &Stage[T]{team: team, ph: ph, bound: bound, p: p, remote: slabLen - slabLen/p, block: stagedLen / p}
	if stagedLen > 0 {
		s.pack, s.recv = Alloc[T](stagedLen), Alloc[T](stagedLen)
	}
	if bound != nil {
		if bound.MaxStale < 0 {
			panic(fmt.Sprintf("exchange: negative staleness bound %d", bound.MaxStale))
		}
		s.plans[YZ] = mpi.NewExchangePlanBounded[T](comm, slabLen, bound.MaxStale, bound.Deadline)
		s.plans[ZY] = mpi.NewExchangePlanBounded[T](comm, slabLen, bound.MaxStale, bound.Deadline)
	} else {
		s.plans[YZ] = mpi.NewExchangePlan[T](comm, slabLen)
		s.plans[ZY] = s.plans[YZ]
	}
	s.build(comm.Rank(), p, dirs)
	return s
}

// build precomputes the team bodies and gather callbacks once, so Run
// dispatches them with zero allocations. The closure bodies are the
// per-range layout kernels, annotated hot so the analyzer checks inside
// them even though the closures are built at plan time.
//
//psdns:hotpath
func (s *Stage[T]) build(me, p int, dirs [2]Kernels[T]) {
	s.copyBlocks = func(srcs [][]T) {
		bs := s.blk
		for r, src := range srcs {
			copy(s.recv[r*bs:(r+1)*bs], src[me*bs:(me+1)*bs])
		}
	}
	for d := range dirs {
		b := &s.dirs[d]
		b.Kernels = dirs[d]
		b.pack = func(_, lo, hi int) { b.Pack(s.pack, s.src, lo, hi) }
		b.unpack = func(_, lo, hi int) { b.Unpack(s.dst, s.recv, lo, hi) }
		b.gather = func(_, lo, hi int) { b.Gather(s.dst, s.srcs, lo, hi) }
		b.gatherPeer = func(_, lo, hi int) { b.GatherPeer(s.dst, s.peerSrc, s.peer, lo, hi) }
		// Fused sweeps every peer's published slab in one team dispatch.
		b.fused = func(srcs [][]T) {
			s.srcs = srcs
			s.team.ForWorkers(b.DstUnits, b.gather)
			s.srcs = nil
		}
		// Chunked rounds visit peers in pairwise-exchange order (round r
		// gathers from (me+r)%P, round 0 being the local slab) so that
		// at any moment each published slab is read by one rank's team.
		b.chunked = func(srcs [][]T) {
			for r := 0; r < p; r++ {
				s.peer = (me + r) % p
				s.peerSrc = srcs[s.peer]
				s.team.ForWorkers(b.PeerUnits, b.gatherPeer)
			}
			s.peerSrc = nil
		}
	}
}

// Run executes direction d under st: src is packed (Staged) or
// published in place (the zero-copy strategies), and the direction's
// kernels land it in dst. Staged times pack, all-to-all and unpack
// separately; a zero-copy exchange lands wholly in the a2a phase (its
// gather time is additionally recorded by the plan in
// exchange.gather.ns). Each charges exchange.bytes what it reads from
// other ranks (the kernels' Sizes): a zero-copy gather its remote
// elements, the staged block copy every block but the rank's own. This
// is the only place a Strategy selects code. Collective.
//
//psdns:hotpath
func (s *Stage[T]) Run(d Dir, st Strategy, src, dst []T) {
	b := &s.dirs[d]
	s.src, s.dst = src, dst
	remote, block := s.remote, s.block
	if b.Sizes != nil {
		remote, block = b.Sizes()
	}
	t := time.Now()
	switch st {
	case Staged:
		if s.pack == nil {
			panic("exchange: Stage.Run(Staged) on a stage without staged blocks: NewStage allocates the pack and recv blocks only for stagedLen > 0")
		}
		s.team.ForWorkers(b.PackUnits, b.pack)
		s.ph.Pack.ObserveSince(t)
		t = time.Now()
		s.blk = block
		s.plans[d].SetWire((s.p - 1) * block)
		s.plans[d].Do(s.pack, s.copyBlocks)
		s.ph.A2A.ObserveSince(t)
		t = time.Now()
		s.team.ForWorkers(b.DstUnits, b.unpack)
		s.ph.Unpack.ObserveSince(t)
	case Fused:
		s.plans[d].SetWire(remote)
		s.plans[d].Do(src, b.fused)
		s.ph.A2A.ObserveSince(t)
	case ChunkedFused:
		s.plans[d].SetWire(remote)
		s.plans[d].Do(src, b.chunked)
		s.ph.A2A.ObserveSince(t)
	case AT:
		s.plans[d].SetWire(remote)
		s.plans[d].SetSite(s.site)
		s.plans[d].DoBounded(src, b.fused, s.bound.MaxStale)
		s.ph.A2A.ObserveSince(t)
	default:
		panic("exchange: Stage.Run needs a concrete strategy, got " + st.String())
	}
	s.src, s.dst = nil, nil
}

// SetATSite labels the quantity the next bounded exchanges carry (see
// mpi.ExchangePlan.SetSite): callers interleaving several fields or
// stages through one stage set a collectively-consistent site index
// before each transform, so accepted stale slabs are always the same
// quantity from whole steps earlier. No effect on synchronous stages.
func (s *Stage[T]) SetATSite(site uint32) { s.site = site }

// TakeStaleness drains the staleness window since the previous take,
// over both directional plans: the worst accepted slab age (in
// same-site cycles), the summed age, the stale slab count and the
// number of bounded exchanges. All zeros on a synchronous stage (and on
// a bounded one whose peers kept up).
func (s *Stage[T]) TakeStaleness() (max int, sum, slabs, calls int64) {
	if s.bound == nil {
		return 0, 0, 0, 0
	}
	for _, pl := range s.plans {
		m, su, sl, c := pl.TakeStaleness()
		if m > max {
			max = m
		}
		sum, slabs, calls = sum+su, slabs+sl, calls+c
	}
	return max, sum, slabs, calls
}

// Close frees the plans and returns the staging buffers to the arena.
// The stage must not be used afterwards.
func (s *Stage[T]) Close() {
	if s.pack != nil {
		Release(s.pack)
		Release(s.recv)
		s.pack, s.recv = nil, nil
	}
	s.plans[YZ].Free()
	s.plans[ZY].Free()
}
