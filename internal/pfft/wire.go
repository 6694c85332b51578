package pfft

import (
	"repro/internal/exchange"
	"repro/internal/mpi"
	"repro/internal/par"
	"repro/internal/transpose"
)

// wire is the engine's row transpose-exchange state at the precision
// the exchange ships. The pipeline computes in complex128 throughout; only
// what crosses between ranks is wire-typed: the slabs themselves on the
// double-precision wire, the engine's four32/mid32 on the paper's
// single-precision one, which the transposing cells narrow their planes
// into and the mirror region's cells widen theirs out of (the f32
// bracket of Passes). Everything else — the layout of the transpose,
// its kernels, its byte counts — is the engine's per-unit
// transpose.SlabLayout and exchange.SlabKernels.
type wire interface {
	// run runs unit u's exchange in direction d under st through the
	// unit's stage: the unit's planes of d's source slab land in d's
	// destination slab, packed into staged blocks and unpacked under
	// Staged, gathered in place from every peer's published planes
	// otherwise. Collective.
	run(d exchange.Dir, st exchange.Strategy, u int)
	setSite(site uint32)
	takeStaleness() (max int, sum, slabs, calls int64)
	close()
}

// wireBuf implements wire at element type T: one exchange.Stage per
// unit, built from the unit's slab kernels.
type wireBuf[T exchange.Elem] struct {
	a *SlabReal
	// src[d] is the slab direction d's units publish planes of, dst[d]
	// the one its exchange lands in: four and mid at complex128, four32
	// and mid32 at complex64.
	src, dst [2]*[]T
	stages   []*exchange.Stage[T]
}

// newWire registers the unit stages over the row communicator. A unit
// stage carries staged pack and recv blocks only when a pinned
// direction is Staged: Pr blocks of the unit's whole-band planes, the
// unit's slab. Collective.
func newWire[T exchange.Elem](a *SlabReal, bound *exchange.Bound) *wireBuf[T] {
	wb := &wireBuf[T]{a: a}
	// A wire of the slabs' own type publishes the slabs themselves.
	four, ok := any(&a.four).(*[]T)
	mid, _ := any(&a.mid).(*[]T)
	if !ok {
		four, mid = any(&a.four32).(*[]T), any(&a.mid32).(*[]T)
	}
	wb.src, wb.dst = [2]*[]T{four, mid}, [2]*[]T{mid, four}
	for u, us := range a.units {
		slabLen, staged := us.width()*a.n*a.l.Wc, 0
		if a.pair.YZ == exchange.Staged || a.pair.ZY == exchange.Staged {
			staged = slabLen
		}
		wb.stages = append(wb.stages, exchange.NewStage(a.comm, a.team, a.met.ph, staged, slabLen, bound,
			exchange.SlabKernels[T](&a.lays[u], a.comm.Rank())))
	}
	return wb
}

func (wb *wireBuf[T]) run(d exchange.Dir, st exchange.Strategy, u int) {
	wb.stages[u].Run(d, st, transpose.Source(&wb.a.lays[u], *wb.src[d], d == exchange.YZ), *wb.dst[d])
}

func (wb *wireBuf[T]) setSite(site uint32) {
	for _, stage := range wb.stages {
		stage.SetATSite(site)
	}
}

func (wb *wireBuf[T]) takeStaleness() (max int, sum, slabs, calls int64) {
	for _, stage := range wb.stages {
		m, s, sl, c := stage.TakeStaleness()
		if m > max {
			max = m
		}
		sum, slabs, calls = sum+s, slabs+sl, calls+c
	}
	return max, sum, slabs, calls
}

func (wb *wireBuf[T]) close() {
	for _, stage := range wb.stages {
		stage.Close()
	}
}

// newColumnStage registers the column exchange of a Pr×Pc grid over
// commZ: one stage for the whole pencil, publishing the padded X forward
// and the (shorter, per-rank varying) B inverse; PadXLen is identical
// across the column group and divisible by Pc by construction. It
// carries staged blocks, Pc of the widest column group's, only when a
// pinned direction is Staged. Collective.
func newColumnStage(commZ *mpi.Comm, team *par.Team, ph exchange.Phases, l *transpose.PencilLayout, pair exchange.Pair) *exchange.Stage[complex128] {
	blocks := 0
	if pair.YZ == exchange.Staged || pair.ZY == exchange.Staged {
		blocks = l.Pc * l.BlockC
	}
	return exchange.NewStage(commZ, team, ph, blocks, l.PadXLen, nil, colKernels[complex128](l))
}

// colKernels describes the column exchange to a stage: YZ moves the
// z-complete B into the x-complete X (the inverse transform's second
// exchange), ZY moves X into B. Both sides split over iy.
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
