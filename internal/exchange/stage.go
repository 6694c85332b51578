package exchange

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/par"
	"repro/internal/transpose"
)

// Elem is the element type a transpose-exchange moves: complex128 on
// the double-precision wire, complex64 on the paper's single-precision
// production wire.
type Elem interface{ complex128 | complex64 }

// Dir indexes the two mirrored directions of a stage, named as in
// Pair: YZ is the exchange of the Fourier→physical transform, ZY the
// one of the physical→Fourier transform.
type Dir int

const (
	YZ Dir = iota
	ZY
)

// Kernels describes one direction of a stage by its layout kernels —
// the only thing that differs between a slab transpose, the column and
// row exchanges of a pencil grid and the per-pencil blocks of the
// batched pipeline. Every kernel works on a half-open range of
// destination-disjoint units so the stage can split it across the
// worker team; dst is the slab handed to Run, passed through untouched
// (an engine whose destination is not wire-typed — the batched pipeline
// widens as it gathers — runs with a nil dst and lets its kernels
// address the destination themselves).
type Kernels[T Elem] struct {
	// DstUnits splits Gather; PeerUnits splits GatherPeer.
	DstUnits, PeerUnits int
	// Gather reads every rank's published slab in place (Fused, AT);
	// GatherPeer reads one peer's (ChunkedFused rounds).
	Gather     func(dst []T, srcs [][]T, lo, hi int)
	GatherPeer func(dst, src []T, peer, lo, hi int)
	// Remote, when set, reports the elements one exchange's gather reads
	// from the other ranks' slabs under the kernels' current layout. Nil
	// is the whole published slab's off-diagonal share.
	Remote func() int
}

// SlabKernels describes the slab transpose over l to a stage: YZ moves
// the Fourier-side slab into the physical-side layout (split over iy on
// the destination side), ZY is the mirror (split over iz). It is the
// one description of that transpose: pfft's row exchange runs it once
// per exchange unit, l being the unit's Range (the whole slab at one
// exchange per slab). All gathers run the cache-blocked variants
// (bitwise-identical, tiled traversal) so the strided side stops
// thrashing at N ≥ 128. The kernels are generic, so the same code moves
// both wire precisions, and read the band from l on every call — their
// Remote too — so a SetBand reaches them without rebuilding anything.
//
//psdns:hotpath
func SlabKernels[T Elem](l *transpose.SlabLayout, me int) [2]Kernels[T] {
	const tile = transpose.DefaultGatherTile
	return [2]Kernels[T]{
		YZ: {
			DstUnits: l.My, PeerUnits: l.My,
			Gather: func(dst []T, srcs [][]T, lo, hi int) {
				transpose.GatherYZRangeBlocked(l, dst, srcs, me, lo, hi, tile)
			},
			GatherPeer: func(dst, src []T, peer, lo, hi int) {
				transpose.GatherYZPeerBlocked(l, dst, src, me, peer, lo, hi, tile)
			},
			Remote: func() int { return l.RemoteElems(me, true) },
		},
		ZY: {
			DstUnits: l.Mz, PeerUnits: l.Mz,
			Gather: func(dst []T, srcs [][]T, lo, hi int) {
				transpose.GatherZYRangeBlocked(l, dst, srcs, me, lo, hi, tile)
			},
			GatherPeer: func(dst, src []T, peer, lo, hi int) {
				transpose.GatherZYPeerBlocked(l, dst, src, me, peer, lo, hi, tile)
			},
			Remote: func() int { return l.RemoteElems(me, false) },
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

// Stage is the one transpose-exchange of the code base: a zero-copy
// gather over one communicator, in either direction, under any
// Strategy, at wire precision T. It owns everything an exchange needs
// besides the data — the mpi.ExchangePlans every strategy runs
// through, the asynchrony-tolerant site label and staleness window,
// the phase timer — and the single switch that executes a direction
// under a strategy. The transform engine (pfft.SlabReal) is FFT passes
// and scheduling around stages: one per plane-group unit of its row
// exchange, and on a Pr×Pc grid one for its column exchange.
//
// Plan ownership: a synchronous stage registers one ExchangePlan and
// serves both directions and every strategy from it (the plan's
// barriers serialize them): each strategy publishes the source slab
// and gathers it in place. A bounded stage registers one plan per
// direction, because the two directions are heterogeneous exchanges:
// with separate epoch streams a stale slab is always an older
// publication of the same direction, never the other direction's slab
// read in the wrong layout.
//
// The steady state performs zero heap allocations: the team bodies and
// gather callbacks are built once at construction and reference the
// per-call operands through the staging fields below. Not safe for
// concurrent use; every method that exchanges is collective.
type Stage[T Elem] struct {
	team *par.Team
	a2a  *metrics.Histogram
	// plans[d] serves direction d; both entries are the same plan on a
	// synchronous stage.
	plans [2]*mpi.ExchangePlan[T]
	// remote is what an exchange moves when its kernels carry no
	// Remote: the whole published slab's off-diagonal share.
	remote int
	bound  *Bound
	site   uint32
	dirs   [2]dirBodies[T]

	// Staging fields: Run publishes the destination here for the
	// prebuilt bodies; the gather callbacks add the peer slab table and
	// the peer of a chunked round.
	dst     []T
	srcs    [][]T
	peer    int
	peerSrc []T
}

// dirBodies are one direction's kernels wrapped as team bodies, plus
// the gather callbacks handed to the plans.
type dirBodies[T Elem] struct {
	Kernels[T]
	gather, gatherPeer func(w, lo, hi int)
	fused, chunked     func(srcs [][]T)
}

// NewStage registers a stage over comm whose kernels run on team (the
// stage borrows the team; the engine closes it) and are timed into a2a
// (nil skips the timing). slabLen is the element count of the slab each
// rank publishes. A non-nil bound makes the stage
// asynchrony-tolerant: it runs exchange.AT only. Collective: every rank
// must construct the stage at the same point in comm's collective
// order.
func NewStage[T Elem](comm *mpi.Comm, team *par.Team, a2a *metrics.Histogram, slabLen int, bound *Bound, dirs [2]Kernels[T]) *Stage[T] {
	p := comm.Size()
	s := &Stage[T]{team: team, a2a: a2a, bound: bound, remote: slabLen - slabLen/p}
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
	for d := range dirs {
		b := &s.dirs[d]
		b.Kernels = dirs[d]
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

// Run executes direction d under st: src is published in place and the
// direction's gather lands it in dst. The exchange is timed into the
// a2a phase (its gather time is additionally recorded by the plan in
// exchange.gather.ns) and charges exchange.bytes the elements it reads
// from other ranks (the kernels' Remote). This is the only place a
// Strategy selects code. Collective.
//
//psdns:hotpath
func (s *Stage[T]) Run(d Dir, st Strategy, src, dst []T) {
	b := &s.dirs[d]
	s.dst = dst
	remote := s.remote
	if b.Remote != nil {
		remote = b.Remote()
	}
	t := time.Now()
	s.plans[d].SetWire(remote)
	switch st {
	case Fused:
		s.plans[d].Do(src, b.fused)
	case ChunkedFused:
		s.plans[d].Do(src, b.chunked)
	case AT:
		s.plans[d].SetSite(s.site)
		s.plans[d].DoBounded(src, b.fused, s.bound.MaxStale)
	default:
		panic("exchange: Stage.Run needs a concrete strategy, got " + st.String())
	}
	s.a2a.ObserveSince(t)
	s.dst = nil
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

// Close frees the plans. The stage must not be used afterwards.
func (s *Stage[T]) Close() {
	s.plans[YZ].Free()
	s.plans[ZY].Free()
}
