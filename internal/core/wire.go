package core

import (
	"repro/internal/exchange"
	"repro/internal/mpi"
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
	// packer returns the staged pack of planes [lo, hi) of unit u in
	// direction d into the unit's send blocks, nil off Staged.
	packer(d exchange.Dir, u, lo, hi int) func()
	// post starts unit u's all-to-all on the staged wire path.
	post(u int) *mpi.Request
	// unpack lands every unit's received blocks in direction d's
	// destination slab; gather lands unit u from every peer's published
	// planes in place, under the zero-copy strategy st. Collective.
	unpack(d exchange.Dir)
	gather(d exchange.Dir, st exchange.Strategy, u int)
	setSite(site uint32)
	takeStaleness() (max int, sum, slabs, calls int64)
	close()
}

// wireBuf implements wire at element type T: one exchange.Stage per
// unit, built from the unit's slab kernels, serving the zero-copy
// strategies and, when the engine pins Staged, the send and recv blocks
// of the engine's own all-to-alls. The staged path stays the engine's
// own — posting an MPI all-to-all per pencil from inside the pipeline
// is scheduling policy — so the stages are built without staging
// buffers of their own.
type wireBuf[T exchange.Elem] struct {
	a *AsyncSlabReal
	// send and recv are whole-slab staging buffers, unit u's blocks
	// where transpose.Staged puts them. Only a Staged engine has them.
	send, recv []T
	// src[d] is the slab direction d's units publish planes of, dst[d]
	// the one its exchange lands in: four and mid at complex128, four32
	// and mid32 at complex64.
	src, dst [2]*[]T
	kernels  [][2]exchange.Kernels[T]
	stages   []*exchange.Stage[T]
	// unpackers[d][u] is unit u's staged unpack as a team body.
	unpackers [2][]func(w, lo, hi int)
}

// newWire allocates the staging buffers and registers the stages. The
// send and recv blocks exist only under a pinned Staged strategy, the
// one path that posts an all-to-all. Collective.
func newWire[T exchange.Elem](a *AsyncSlabReal, bound *exchange.Bound) *wireBuf[T] {
	wb := &wireBuf[T]{a: a}
	if a.strat == exchange.Staged {
		wb.send, wb.recv = exchange.Alloc[T](a.FourierLen()), exchange.Alloc[T](a.FourierLen())
	}
	// A wire of the slabs' own type publishes the slabs themselves.
	four, ok := any(&a.four).(*[]T)
	mid, _ := any(&a.mid).(*[]T)
	if !ok {
		four, mid = any(&a.four32).(*[]T), any(&a.mid32).(*[]T)
	}
	wb.src, wb.dst = [2]*[]T{four, mid}, [2]*[]T{mid, four}
	for u, us := range a.units {
		wb.kernels = append(wb.kernels, exchange.SlabKernels[T](&a.lays[u], a.comm.Rank()))
		for d := range wb.unpackers {
			wb.unpackers[d] = append(wb.unpackers[d], wb.unpacker(exchange.Dir(d), u))
		}
		wb.stages = append(wb.stages, exchange.NewStage(a.comm, a.team,
			exchange.Phases{A2A: a.met.a2a}, 0, us.width()*a.n*a.nxh, bound, wb.kernels[u]))
	}
	return wb
}

// unpacker is unit u's staged unpack in direction d as a team body:
// the unit kernels' Unpack of its recv blocks.
//
//psdns:hotpath
func (wb *wireBuf[T]) unpacker(d exchange.Dir, u int) func(w, lo, hi int) {
	l, unpack, dst, yz := &wb.a.lays[u], wb.kernels[u][d].Unpack, wb.dst[d], d == exchange.YZ
	return func(_, lo, hi int) { unpack(*dst, transpose.Staged(l, wb.recv, yz), lo, hi) }
}

//psdns:hotpath
func (wb *wireBuf[T]) packer(d exchange.Dir, u, lo, hi int) func() {
	if wb.send == nil {
		return nil
	}
	l, pack, src, yz := &wb.a.lays[u], wb.kernels[u][d].Pack, wb.src[d], d == exchange.YZ
	lo, hi = lo-l.Lo, hi-l.Lo
	return func() { pack(transpose.Staged(l, wb.send, yz), transpose.Source(l, *src, yz), lo, hi) }
}

// post sends unit u's blocks; the slab is square (My = Mz), so both
// directions' blocks sit in the same place.
func (wb *wireBuf[T]) post(u int) *mpi.Request {
	l := &wb.a.lays[u]
	return mpi.Ialltoall(wb.a.comm, transpose.Staged(l, wb.send, true), transpose.Staged(l, wb.recv, true))
}

func (wb *wireBuf[T]) unpack(d exchange.Dir) {
	for u, body := range wb.unpackers[d] {
		if wb.a.units[u].width() > 0 {
			wb.a.team.ForWorkers(wb.kernels[u][d].DstUnits, body)
		}
	}
}

func (wb *wireBuf[T]) gather(d exchange.Dir, st exchange.Strategy, u int) {
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
	exchange.Release(wb.send)
	exchange.Release(wb.recv)
	wb.send, wb.recv = nil, nil
}
