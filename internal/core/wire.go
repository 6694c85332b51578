package core

import (
	"repro/internal/cuda"
	"repro/internal/exchange"
	"repro/internal/mpi"
)

// wire is the engine's transpose-exchange state at the precision the
// exchange ships. The pipeline computes in complex128 throughout; only
// what crosses between ranks is wire-typed, so the two instantiations
// of wireBuf differ in nothing but the copy kernels at that boundary.
type wire interface {
	// pack enqueues a strided copy of device rows into unit u's send
	// block at element offset off — the fused pack+D2H of §3.4.
	pack(s *cuda.Stream, u, off, stride int, src []complex128, srcStride, rowLen, nrows int)
	// post starts unit u's all-to-all on the staged wire path.
	post(u int) *mpi.Request
	// unpack scatters every unit's received blocks into direction d's
	// destination slab; gather does the same from every peer's send
	// buffer in place, under the zero-copy strategy st. Collective.
	unpack(d exchange.Dir)
	gather(d exchange.Dir, st exchange.Strategy)
	setSite(site uint32)
	takeStaleness() (max int, sum, slabs, calls int64)
	close()
}

// wireBuf implements wire at element type T: one whole-slab send and
// recv buffer cut into a view per exchange unit (a.xu), and one
// exchange.Stage per unit serving the zero-copy strategies. The staged
// path stays the engine's own — posting an MPI all-to-all per pencil
// from inside the pipeline is scheduling policy — so the stages are
// built without staging buffers of their own.
type wireBuf[T exchange.Elem] struct {
	a            *AsyncSlabReal
	send, recv   []T
	sendU, recvU [][]T
	stages       []*exchange.Stage[T]
	// kern[d][u] are unit u's layout kernels for direction d: the
	// stages run the gathers, unpack runs Unpack on what the engine's
	// own all-to-alls delivered.
	kern [2][]exchange.Kernels[T]
	put  func(s *cuda.Stream, dst []T, dstStride int, src []complex128, srcStride, rowLen, nrows int)
}

// newWire allocates the staging buffers and registers the stages. put
// and get are the copy kernels into and out of the wire precision:
// plain strided copies at complex128, narrowing and widening ones at
// complex64. Collective.
func newWire[T exchange.Elem](a *AsyncSlabReal, bound *exchange.Bound,
	put func(s *cuda.Stream, dst []T, dstStride int, src []complex128, srcStride, rowLen, nrows int),
	get func(dst []complex128, dstStride int, src []T, srcStride, rowLen, nrows int)) *wireBuf[T] {
	n, nxh, mz, my, p, me := a.n, a.nxh, a.s.MZ(), a.s.MY(), a.comm.Size(), a.comm.Rank()
	wb := &wireBuf[T]{
		a:    a,
		send: exchange.Alloc[T](mz * n * nxh),
		recv: exchange.Alloc[T](mz * n * nxh),
		put:  put,
	}
	// kernels builds one unit's kernels for one direction over scatter,
	// which lands block b of a unit buffer (a recv buffer, or a peer's
	// send buffer): dst is the slab [·][n][nxh] whose plane (s·ma+i)
	// receives, at the unit's x offset, the mb rows of width w that rank
	// s packed for this rank's plane i. Each (s,i) owns distinct
	// destination rows, so any split across the team is conflict-free.
	kernels := func(dst *[]complex128, xs span, ma, mb int) exchange.Kernels[T] {
		w, blk := xs.width(), ma*mb*xs.width()
		scatter := func(src []T, b, s, i int) {
			get((*dst)[(s*ma+i)*nxh+xs.lo:], n*nxh, src[b*blk+i*mb*w:], w, w, mb)
		}
		return exchange.Kernels[T]{
			DstUnits: p * ma, PeerUnits: ma,
			Unpack: func(_, recv []T, lo, hi int) {
				for u := lo; u < hi; u++ {
					scatter(recv, u/ma, u/ma, u%ma)
				}
			},
			Gather: func(_ []T, srcs [][]T, lo, hi int) {
				for u := lo; u < hi; u++ {
					scatter(srcs[u/ma], me, u/ma, u%ma)
				}
			},
			GatherPeer: func(_, src []T, s, lo, hi int) {
				for i := lo; i < hi; i++ {
					scatter(src, me, s, i)
				}
			},
		}
	}
	off := 0
	for _, xs := range a.xu {
		size := p * mz * my * xs.width()
		wb.sendU = append(wb.sendU, wb.send[off:off+size])
		wb.recvU = append(wb.recvU, wb.recv[off:off+size])
		off += size
		yz, zy := kernels(&a.mid, xs, mz, my), kernels(&a.four, xs, my, mz)
		wb.kern[exchange.YZ] = append(wb.kern[exchange.YZ], yz)
		wb.kern[exchange.ZY] = append(wb.kern[exchange.ZY], zy)
		wb.stages = append(wb.stages, exchange.NewStage(a.comm, a.team,
			exchange.Phases{A2A: a.met.a2a}, 0, size, bound, [2]exchange.Kernels[T]{yz, zy}))
	}
	return wb
}

func (wb *wireBuf[T]) pack(s *cuda.Stream, u, off, stride int, src []complex128, srcStride, rowLen, nrows int) {
	wb.put(s, wb.sendU[u][off:], stride, src, srcStride, rowLen, nrows)
}

func (wb *wireBuf[T]) post(u int) *mpi.Request {
	return mpi.Ialltoall(wb.a.comm, wb.sendU[u], wb.recvU[u])
}

func (wb *wireBuf[T]) unpack(d exchange.Dir) {
	for u, k := range wb.kern[d] {
		wb.a.team.ForWorkers(k.DstUnits, func(_, lo, hi int) { k.Unpack(nil, wb.recvU[u], lo, hi) })
	}
}

func (wb *wireBuf[T]) gather(d exchange.Dir, st exchange.Strategy) {
	for u, stage := range wb.stages {
		stage.Run(d, st, wb.sendU[u], nil)
	}
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
