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
	// packKernel builds the pack kernel of one (pencil, device) cell of
	// direction d's transposing region and reports the bytes it writes:
	// the in-band part of columns xs of every plane of slab =
	// [ma][n][nxh] goes to unit u's send blocks [dst][ma][mb][wp],
	// narrowed to the wire precision — the fused pack+D2H of §3.4 as the
	// single zero-copy kernel of §4.2.
	packKernel(slab *[]complex128, d exchange.Dir, u int, xs span, ma, mb int) (run func(), bytes int64)
	// setBand charges every unit's stage what its gathers read of the
	// engine's band (compile).
	setBand()
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
	for u, xs := range a.xu {
		size := p * mz * my * xs.width()
		send, recv := wb.send[off:off+size], wb.recv[off:off+size]
		wb.sendU, wb.recvU = append(wb.sendU, send), append(wb.recvU, recv)
		off += size
		dirs := [2]exchange.Kernels[T]{wb.kernels(exchange.YZ, u), wb.kernels(exchange.ZY, u)}
		for d, k := range dirs {
			wb.unpackers[d] = append(wb.unpackers[d], unpacker(k, recv))
		}
		wb.stages = append(wb.stages, exchange.NewStage(a.comm, a.team,
			exchange.Phases{A2A: a.met.a2a}, 0, size, bound, dirs))
	}
	return wb
}

// kernels builds unit u's layout kernels for direction d over scatter.
// A kernel unit (s, i) — rank s's source plane i — owns distinct
// destination rows, so any split across the team is conflict-free.
//
//psdns:hotpath
func (wb *wireBuf[T]) kernels(d exchange.Dir, u int) exchange.Kernels[T] {
	me, ma := wb.a.comm.Rank(), wb.a.s.MZ()
	if d == exchange.ZY {
		ma = wb.a.s.MY()
	}
	return exchange.Kernels[T]{
		DstUnits: wb.a.comm.Size() * ma, PeerUnits: ma,
		Unpack: func(_, recv []T, lo, hi int) {
			for v := lo; v < hi; v++ {
				wb.scatter(d, u, recv, v/ma, v/ma, v%ma)
			}
		},
		Gather: func(_ []T, srcs [][]T, lo, hi int) {
			for v := lo; v < hi; v++ {
				wb.scatter(d, u, srcs[v/ma], me, v/ma, v%ma)
			}
		},
		GatherPeer: func(_, src []T, s, lo, hi int) {
			for i := lo; i < hi; i++ {
				wb.scatter(d, u, src, me, s, i)
			}
		},
	}
}

// scatter lands block b of a unit-u buffer src (a recv buffer, or a
// peer's send buffer) — the rows rank s packed from its plane i for
// this rank, at the unit's width w — in direction d's destination
// slab, the band's kb_u columns of each at the unit's x offset. YZ:
// plane i of rank s is kz = s·mz+i, which lands in that row of every
// y-plane of mid, or, outside the band, gets +0 there (the z lines
// read it). ZY: y-plane i of rank s lands in row s·my+i of this
// rank's in-band kz planes of four; the out-of-band ones are left to
// the y pass.
//
//psdns:hotpath
func (wb *wireBuf[T]) scatter(d exchange.Dir, u int, src []T, b, s, i int) {
	a := wb.a
	n, nxh, mz, my := a.n, a.nxh, a.s.MZ(), a.s.MY()
	xs, kb := a.xu[u], a.unitKB[u]
	w, stride := xs.width(), n*nxh
	if d == exchange.YZ {
		row := (s*mz+i)*nxh + xs.lo
		if a.band.Has(s*mz + i) {
			wb.get(a.mid[row:], stride, src[(b*mz+i)*my*w:], w, kb, my)
			return
		}
		for r := 0; r < my; r++ {
			clear(a.mid[row+r*stride : row+r*stride+kb])
		}
		return
	}
	row, blk, zLo := (s*my+i)*nxh+xs.lo, src[(b*my+i)*mz*w:], a.s.ZLo()
	for _, r := range a.zRuns(zLo, zLo+mz) {
		if j := r.lo - zLo; r.lo < r.hi {
			wb.get(a.four[j*stride+row:], stride, blk[j*w:], w, kb, r.width())
		}
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
// inside one launch. It moves the band the scatters read and no more:
// the cell's kb in-band columns of the in-band kz rows — YZ, the
// planes of four whose kz is in band (every y row); ZY, the in-band kz
// rows of each mid plane. A cell with kb = 0 writes nothing, but is
// still launched, so the Fig 4 order does not depend on the band.
//
//psdns:hotpath
func (wb *wireBuf[T]) packKernel(slab *[]complex128, d exchange.Dir, u int, xs span, ma, mb int) (func(), int64) {
	a := wb.a
	n, nxh, p, zLo := a.n, a.nxh, a.comm.Size(), a.s.ZLo()
	kb, wp := a.band.Width(xs.lo, xs.hi), a.xu[u].width()
	send := wb.sendU[u][xs.lo-a.xu[u].lo:]
	run := func() {
		if kb == 0 {
			return
		}
		src := (*slab)[xs.lo:]
		for i := 0; i < ma; i++ {
			if d == exchange.YZ && !a.band.Has(zLo+i) {
				continue
			}
			for dst := 0; dst < p; dst++ {
				at, row := (dst*ma+i)*mb*wp, (i*n+dst*mb)*nxh
				if d == exchange.YZ {
					wb.put(send[at:], wp, src[row:], nxh, kb, mb)
					continue
				}
				for _, r := range a.zRuns(dst*mb, (dst+1)*mb) {
					if j := r.lo - dst*mb; r.lo < r.hi {
						wb.put(send[at+j*wp:], wp, src[row+j*nxh:], nxh, kb, r.width())
					}
				}
			}
		}
	}
	rows := ma * a.band.Count(0, n) // ZY: every plane's in-band kz rows
	if d == exchange.YZ {
		rows = a.band.Count(zLo, zLo+ma) * n // YZ: every row of the in-band planes
	}
	return run, int64(unsafe.Sizeof(send[0])) * int64(rows*kb)
}

// setBand charges each unit's stage the remote elements its gathers
// read, kb_u columns of each row: YZ, every peer's in-band planes, my
// rows each; ZY, this rank's in-band planes, my rows from each peer.
func (wb *wireBuf[T]) setBand() {
	a := wb.a
	mz, my, p, zLo := a.s.MZ(), a.s.MY(), a.comm.Size(), a.s.ZLo()
	mine := a.band.Count(zLo, zLo+mz)
	yz, zy := (a.band.Count(0, a.n)-mine)*my, (p-1)*mine*my
	for u, st := range wb.stages {
		st.SetWireElems(exchange.YZ, yz*a.unitKB[u])
		st.SetWireElems(exchange.ZY, zy*a.unitKB[u])
	}
}

func (wb *wireBuf[T]) post(u int) *mpi.Request {
	return mpi.Ialltoall(wb.a.comm, wb.sendU[u], wb.recvU[u])
}

func (wb *wireBuf[T]) unpack(d exchange.Dir) {
	for u, body := range wb.unpackers[d] {
		if wb.a.unitKB[u] > 0 {
			wb.a.team.ForWorkers(wb.unpackUnits[d], body)
		}
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
