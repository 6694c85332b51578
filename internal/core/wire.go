package core

import (
	"repro/internal/exchange"
	"repro/internal/transpose"
)

// wire is the engine's transpose-exchange state at the precision the
// exchange ships. The pipeline computes in complex128 throughout; only
// what crosses between ranks is wire-typed: the slabs themselves on the
// double-precision wire, the engine's four32/mid32 on the paper's
// single-precision one, which the transposing cells narrow their planes
// into and the mirror region's cells widen theirs out of (pfft.Passes,
// the slab engine's own bracket). Everything else — the layout of the
// transpose, its kernels, its byte counts — is the engine's per-unit
// transpose.SlabLayout and exchange.SlabKernels, the slab engine's own.
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
	a *AsyncSlabReal
	// src[d] is the slab direction d's units publish planes of, dst[d]
	// the one its exchange lands in: four and mid at complex128, four32
	// and mid32 at complex64.
	src, dst [2]*[]T
	stages   []*exchange.Stage[T]
}

// newWire registers the unit stages. A unit stage carries staged pack
// and recv blocks only when the engine pins Staged, sized as pfft's
// row stage sizes its own: P blocks of the unit's whole-band planes,
// the unit's slab. Collective.
func newWire[T exchange.Elem](a *AsyncSlabReal, bound *exchange.Bound) *wireBuf[T] {
	wb := &wireBuf[T]{a: a}
	// A wire of the slabs' own type publishes the slabs themselves.
	four, ok := any(&a.four).(*[]T)
	mid, _ := any(&a.mid).(*[]T)
	if !ok {
		four, mid = any(&a.four32).(*[]T), any(&a.mid32).(*[]T)
	}
	wb.src, wb.dst = [2]*[]T{four, mid}, [2]*[]T{mid, four}
	for u, us := range a.units {
		slabLen, staged := us.width()*a.n*a.nxh, 0
		if a.strat == exchange.Staged {
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
