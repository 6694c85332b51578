package core

import (
	"unsafe"

	"repro/internal/exchange"
	"repro/internal/mpi"
)

// wire is the engine's transpose-exchange state at the precision the
// exchange ships. The pipeline computes in complex128 throughout; only
// what crosses between ranks is wire-typed, so the two instantiations
// of wireBuf differ in nothing but the copy kernels at that boundary.
//
// The paper's production code works entirely in single precision —
// Table 1's memory model and Table 2's message sizes assume 4-byte
// words. The numerics here run in float64 for verifiable accuracy, but
// the complex64 wire halves the bytes exactly as the paper's code
// would, at ~1e-7 relative rounding per transform. The strided convert
// kernels live in transpose (NarrowStrided/WidenStrided), shared with
// the synchronous slab engine's float32 pipeline.
type wire interface {
	// packKernel builds the pack kernel of one (pencil, device) cell
	// and reports the bytes it writes: columns xs of every plane of
	// slab = [ma][n][nxh] go to unit u's send blocks [dst][ma][mb][wp],
	// narrowed to the wire precision — the fused pack+D2H of §3.4 as
	// the single zero-copy kernel of §4.2.
	packKernel(slab *[]complex128, u int, xs span, ma, mb int) (run func(), bytes int64)
	// post starts unit u's all-to-all on the staged wire path.
	post(u int) *mpi.Request
	// unpack scatters every unit's received blocks into direction d's
	// destination slab; gather does the same for unit u from every
	// peer's send buffer in place, under the zero-copy strategy st.
	// Collective.
	unpack(d exchange.Dir)
	gather(d exchange.Dir, st exchange.Strategy, u int)
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
	// unpackers[d][u] scatters what the engine's own all-to-all
	// delivered into unit u's recv buffer, as a team body over
	// unpackUnits[d] destination rows.
	unpackers   [2][]func(w, lo, hi int)
	unpackUnits [2]int
	put         func(dst []T, dstStride int, src []complex128, srcStride, rowLen, nrows int)
	get         func(dst []complex128, dstStride int, src []T, srcStride, rowLen, nrows int)
}

// newWire allocates the staging buffers and registers the stages. put
// and get are the copy kernels into and out of the wire precision:
// plain strided copies at complex128, narrowing and widening ones at
// complex64. Collective.
func newWire[T exchange.Elem](a *AsyncSlabReal, bound *exchange.Bound,
	put func(dst []T, dstStride int, src []complex128, srcStride, rowLen, nrows int),
	get func(dst []complex128, dstStride int, src []T, srcStride, rowLen, nrows int)) *wireBuf[T] {
	n, nxh, mz, my, p := a.n, a.nxh, a.s.MZ(), a.s.MY(), a.comm.Size()
	wb := &wireBuf[T]{
		a:           a,
		send:        exchange.Alloc[T](mz * n * nxh),
		recv:        exchange.Alloc[T](mz * n * nxh),
		unpackUnits: [2]int{p * mz, p * my},
		put:         put,
		get:         get,
	}
	off := 0
	for _, xs := range a.xu {
		size := p * mz * my * xs.width()
		send, recv := wb.send[off:off+size], wb.recv[off:off+size]
		wb.sendU, wb.recvU = append(wb.sendU, send), append(wb.recvU, recv)
		off += size
		dirs := [2]exchange.Kernels[T]{wb.kernels(&a.mid, xs, mz, my), wb.kernels(&a.four, xs, my, mz)}
		for d, k := range dirs {
			wb.unpackers[d] = append(wb.unpackers[d], unpacker(k, recv))
		}
		wb.stages = append(wb.stages, exchange.NewStage(a.comm, a.team,
			exchange.Phases{A2A: a.met.a2a}, 0, size, bound, dirs))
	}
	return wb
}

// kernels builds one unit's layout kernels for one direction over
// scatter, which lands block b of a unit buffer (a recv buffer, or a
// peer's send buffer): dst is the slab [·][n][nxh] whose plane (s·ma+i)
// receives, at the unit's x offset, the mb rows of width w that rank s
// packed for this rank's plane i. Each (s,i) owns distinct destination
// rows, so any split across the team is conflict-free.
//
//psdns:hotpath
func (wb *wireBuf[T]) kernels(dst *[]complex128, xs span, ma, mb int) exchange.Kernels[T] {
	n, nxh, me := wb.a.n, wb.a.nxh, wb.a.comm.Rank()
	w, blk := xs.width(), ma*mb*xs.width()
	scatter := func(src []T, b, s, i int) {
		wb.get((*dst)[(s*ma+i)*nxh+xs.lo:], n*nxh, src[b*blk+i*mb*w:], w, w, mb)
	}
	return exchange.Kernels[T]{
		DstUnits: wb.a.comm.Size() * ma, PeerUnits: ma,
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

// unpacker wraps one unit's Unpack kernel as a team body.
//
//psdns:hotpath
func unpacker[T exchange.Elem](k exchange.Kernels[T], recv []T) func(w, lo, hi int) {
	return func(_, lo, hi int) { k.Unpack(nil, recv, lo, hi) }
}

// The kernel walks each source plane once, top to bottom, so the slab
// is read sequentially; the call count still grows with the rank count
// (one strided copy per destination and plane, the §5.2 effect), but
// inside one launch.
//
//psdns:hotpath
func (wb *wireBuf[T]) packKernel(slab *[]complex128, u int, xs span, ma, mb int) (func(), int64) {
	n, nxh, p := wb.a.n, wb.a.nxh, wb.a.comm.Size()
	w, wp := xs.width(), wb.a.xu[u].width()
	send := wb.sendU[u][xs.lo-wb.a.xu[u].lo:]
	run := func() {
		src := (*slab)[xs.lo:]
		for i := 0; i < ma; i++ {
			for dst := 0; dst < p; dst++ {
				wb.put(send[(dst*ma+i)*mb*wp:], wp, src[(i*n+dst*mb)*nxh:], nxh, w, mb)
			}
		}
	}
	return run, int64(unsafe.Sizeof(send[0])) * int64(w*ma*n)
}

func (wb *wireBuf[T]) post(u int) *mpi.Request {
	return mpi.Ialltoall(wb.a.comm, wb.sendU[u], wb.recvU[u])
}

func (wb *wireBuf[T]) unpack(d exchange.Dir) {
	for _, body := range wb.unpackers[d] {
		wb.a.team.ForWorkers(wb.unpackUnits[d], body)
	}
}

func (wb *wireBuf[T]) gather(d exchange.Dir, st exchange.Strategy, u int) {
	wb.stages[u].Run(d, st, wb.sendU[u], nil)
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
