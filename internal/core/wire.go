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
	// packs reports whether the transposing cells carry a pack kernel:
	// under Staged, and on the single-precision wire. The
	// double-precision zero-copy strategies publish the slab itself.
	packs() bool
	// packKernel builds the pack kernel of the cell running planes sp
	// of unit u in direction d's transposing region and reports the
	// bytes it writes: the band's part of those planes of the source
	// slab goes, at the wire precision, into unit u's send blocks
	// (Staged) or the unit's narrowed planes (the f32 zero-copy wire) —
	// the fused pack+D2H of §3.4 as the single zero-copy kernel of §4.2.
	packKernel(d exchange.Dir, u int, sp span) (run func(), bytes int64)
	// setBand charges every unit's stage what its gathers read of the
	// engine's band (compile).
	setBand()
	// post starts unit u's all-to-all on the staged wire path.
	post(u int) *mpi.Request
	// unpack scatters every unit's received blocks into direction d's
	// destination slab; gather lands unit u from every peer's published
	// planes in place, under the zero-copy strategy st. Collective.
	unpack(d exchange.Dir)
	gather(d exchange.Dir, st exchange.Strategy, u int)
	setSite(site uint32)
	takeStaleness() (max int, sum, slabs, calls int64)
	close()
}

// wireBuf implements wire at element type T: one exchange.Stage per
// unit serving the zero-copy strategies, which publish the unit's
// contiguous plane range — of the slab itself at complex128, of
// narrow at complex64 — and, when the engine pins Staged, the send and
// recv blocks of the engine's own all-to-alls. The staged path stays
// the engine's own — posting an MPI all-to-all per pencil from inside
// the pipeline is scheduling policy — so the stages are built without
// staging buffers of their own.
type wireBuf[T exchange.Elem] struct {
	a *AsyncSlabReal
	// send and recv are whole-slab buffers cut into one view per unit
	// (view): p blocks of the unit's planes, my rows each, kb columns a
	// row. Only a Staged engine has them.
	send, recv []T
	// narrow is the single-precision wire's copy of the planes a
	// direction publishes, in the slab's own plane layout; nil at
	// complex128. src[d] is what direction d's units publish planes of.
	narrow []T
	src    [2]*[]T
	stages []*exchange.Stage[T]
	// unpackers[d][u] scatters what the engine's own all-to-all
	// delivered into unit u's recv blocks, as a team body over its
	// p·width (rank, plane) units.
	unpackers [2][]func(w, lo, hi int)
	put       func(dst []T, dstStride int, src []complex128, srcStride, rowLen, nrows int)
	get       func(dst []complex128, dstStride int, src []T, srcStride, rowLen, nrows int)
}

// lay addresses a unit buffer: the rows for rank r of the unit's plane
// i start at r·blk + i·plane, row elements apart.
type lay struct{ blk, plane, row int }

// newWire allocates the wire buffers and registers the stages. The
// send and recv blocks exist only under a pinned Staged strategy, the
// one path that posts an all-to-all; narrow exists on the
// single-precision wire whatever the strategy, so the tuner's Staged
// trial engine can time the zero-copy ones too. put and get are the
// copy kernels into and out of the wire precision: plain strided
// copies at complex128, narrowing and widening ones at complex64.
// Collective.
func newWire[T exchange.Elem](a *AsyncSlabReal, bound *exchange.Bound,
	put func(dst []T, dstStride int, src []complex128, srcStride, rowLen, nrows int),
	get func(dst []complex128, dstStride int, src []T, srcStride, rowLen, nrows int)) *wireBuf[T] {
	slab := a.FourierLen()
	wb := &wireBuf[T]{a: a, put: put, get: get}
	if a.strat == exchange.Staged {
		wb.send, wb.recv = exchange.Alloc[T](slab), exchange.Alloc[T](slab)
	}
	// A wire of the slabs' own type publishes the slabs themselves.
	if four, ok := any(&a.four).(*[]T); ok {
		wb.src = [2]*[]T{exchange.YZ: four, exchange.ZY: any(&a.mid).(*[]T)}
	} else {
		wb.narrow = exchange.Alloc[T](slab)
		wb.src = [2]*[]T{&wb.narrow, &wb.narrow}
	}
	for u, us := range a.units {
		dirs := [2]exchange.Kernels[T]{wb.kernels(exchange.YZ, u), wb.kernels(exchange.ZY, u)}
		for d := range dirs {
			wb.unpackers[d] = append(wb.unpackers[d], wb.unpacker(exchange.Dir(d), u))
		}
		wb.stages = append(wb.stages, exchange.NewStage(a.comm, a.team,
			exchange.Phases{A2A: a.met.a2a}, 0, us.width()*a.n*a.nxh, bound, dirs))
	}
	return wb
}

// lays reports unit u's two buffer layouts under the current band: pub,
// the published planes, [width][n][nxh] with rank r's rows at row r·my
// of each; staged, the all-to-all blocks, [p][width][my][kb].
func (wb *wireBuf[T]) lays(u int) (pub, staged lay) {
	a := wb.a
	m := a.s.MY()
	return lay{m * a.nxh, a.n * a.nxh, a.nxh}, lay{a.units[u].width() * m * a.kb, m * a.kb, a.kb}
}

// view cuts unit u's blocks out of a whole-slab staged buffer, at the
// unit's full-band offset.
//
//psdns:hotpath
func (wb *wireBuf[T]) view(buf []T, u int) []T {
	a := wb.a
	_, l := wb.lays(u)
	at := a.comm.Size() * a.units[u].lo * a.s.MY() * a.nxh
	return buf[at : at+a.comm.Size()*l.blk]
}

// kernels builds unit u's gather kernels for direction d. A kernel
// unit (s, i) — rank s's plane i of the unit — owns distinct
// destination rows, so any split across the team is conflict-free.
//
//psdns:hotpath
func (wb *wireBuf[T]) kernels(d exchange.Dir, u int) exchange.Kernels[T] {
	me, uw, lo := wb.a.comm.Rank(), wb.a.units[u].width(), wb.a.units[u].lo
	return exchange.Kernels[T]{
		DstUnits: wb.a.comm.Size() * uw, PeerUnits: uw,
		Gather: func(_ []T, srcs [][]T, vlo, vhi int) {
			l, _ := wb.lays(u)
			for v := vlo; v < vhi; v++ {
				wb.scatter(d, srcs[v/uw][me*l.blk+v%uw*l.plane:], l.row, v/uw, lo+v%uw)
			}
		},
		GatherPeer: func(_, src []T, s, ilo, ihi int) {
			l, _ := wb.lays(u)
			for i := ilo; i < ihi; i++ {
				wb.scatter(d, src[me*l.blk+i*l.plane:], l.row, s, lo+i)
			}
		},
	}
}

// unpacker is unit u's staged unpack as a team body: rank s's block
// of the recv view holds its plane i at i·plane.
//
//psdns:hotpath
func (wb *wireBuf[T]) unpacker(d exchange.Dir, u int) func(w, lo, hi int) {
	uw, ulo := wb.a.units[u].width(), wb.a.units[u].lo
	return func(_, vlo, vhi int) {
		_, l := wb.lays(u)
		recv := wb.view(wb.recv, u)
		for v := vlo; v < vhi; v++ {
			wb.scatter(d, recv[v/uw*l.blk+v%uw*l.plane:], l.row, v/uw, ulo+v%uw)
		}
	}
}

// scatter lands the rows rank s sent this rank from its plane ip — at
// src, row elements apart — in direction d's destination slab, the
// band's kb columns of each. YZ: plane ip of rank s is kz = s·mz+ip,
// which lands in that row of every y-plane of mid or, outside the band,
// gets +0 there (the z lines read it). ZY: y-plane ip of rank s lands
// in row s·my+ip of this rank's in-band kz planes of four; the
// out-of-band ones are left to the y pass.
//
//psdns:hotpath
func (wb *wireBuf[T]) scatter(d exchange.Dir, src []T, row, s, ip int) {
	a := wb.a
	m, pl, kb := a.s.MY(), a.n*a.nxh, a.kb
	if d == exchange.YZ {
		kz := s*m + ip
		if a.band.Has(kz) {
			wb.get(a.mid[kz*a.nxh:], pl, src, row, kb, m)
			return
		}
		for iy := 0; iy < m; iy++ {
			clear(a.mid[iy*pl+kz*a.nxh:][:kb])
		}
		return
	}
	at, zLo := (s*m+ip)*a.nxh, a.s.ZLo()
	for _, r := range a.zRuns(zLo, zLo+m) {
		if j := r.lo - zLo; r.lo < r.hi {
			wb.get(a.four[j*pl+at:], pl, src[j*row:], row, kb, r.width())
		}
	}
}

// packKernel walks each of the cell's planes once, top to bottom, so
// the slab is read sequentially, and moves the band the gathers read
// and no more: the kb in-band columns of the in-band kz rows — YZ,
// every row of the z-planes of four whose kz is in band; ZY, the
// in-band kz rows of each y-plane of mid. A cell with no such row
// writes nothing, but is still launched, so the Fig 4 order does not
// depend on the band.
//
//psdns:hotpath
func (wb *wireBuf[T]) packKernel(d exchange.Dir, u int, sp span) (func(), int64) {
	a := wb.a
	p, m, pl, kb, zLo := a.comm.Size(), a.s.MY(), a.n*a.nxh, a.kb, a.s.ZLo()
	l, buf := lay{}, []T(nil)
	if wb.send != nil {
		_, l = wb.lays(u)
		buf = wb.view(wb.send, u)
	} else {
		l, _ = wb.lays(u)
		buf = wb.narrow[a.units[u].lo*pl:]
	}
	run := func() {
		src := a.four
		if d == exchange.ZY {
			src = a.mid
		}
		for ip := sp.lo; ip < sp.hi; ip++ {
			if d == exchange.YZ && !a.band.Has(zLo+ip) {
				continue
			}
			for dst := 0; dst < p; dst++ {
				at, row := dst*l.blk+(ip-a.units[u].lo)*l.plane, ip*pl+dst*m*a.nxh
				if d == exchange.YZ {
					wb.put(buf[at:], l.row, src[row:], a.nxh, kb, m)
					continue
				}
				for _, r := range a.zRuns(dst*m, (dst+1)*m) {
					if j := r.lo - dst*m; r.lo < r.hi {
						wb.put(buf[at+j*l.row:], l.row, src[row+j*a.nxh:], a.nxh, kb, r.width())
					}
				}
			}
		}
	}
	rows := sp.width() * a.band.Count(0, a.n) // ZY: every plane's in-band kz rows
	if d == exchange.YZ {
		rows = a.band.Count(zLo+sp.lo, zLo+sp.hi) * a.n // YZ: every row of the in-band planes
	}
	return run, int64(unsafe.Sizeof(buf[0])) * int64(rows*kb)
}

// setBand charges each unit's stage the remote elements its gathers
// read, kb columns of each row: YZ, the in-band planes of the unit's
// range on every peer, my rows each; ZY, this rank's in-band planes,
// the unit's rows from each peer.
func (wb *wireBuf[T]) setBand() {
	a := wb.a
	m, p, me := a.s.MY(), a.comm.Size(), a.comm.Rank()
	mine := a.band.Count(me*m, (me+1)*m)
	for u, us := range a.units {
		yz := 0
		for s := 0; s < p; s++ {
			if s != me {
				yz += a.band.Count(s*m+us.lo, s*m+us.hi)
			}
		}
		wb.stages[u].SetWireElems(exchange.YZ, yz*m*a.kb)
		wb.stages[u].SetWireElems(exchange.ZY, (p-1)*mine*us.width()*a.kb)
	}
}

func (wb *wireBuf[T]) packs() bool { return wb.send != nil || wb.narrow != nil }

func (wb *wireBuf[T]) post(u int) *mpi.Request {
	return mpi.Ialltoall(wb.a.comm, wb.view(wb.send, u), wb.view(wb.recv, u))
}

func (wb *wireBuf[T]) unpack(d exchange.Dir) {
	for u, body := range wb.unpackers[d] {
		if w := wb.a.units[u].width(); w > 0 {
			wb.a.team.ForWorkers(wb.a.comm.Size()*w, body)
		}
	}
}

func (wb *wireBuf[T]) gather(d exchange.Dir, st exchange.Strategy, u int) {
	pl := wb.a.n * wb.a.nxh
	us := wb.a.units[u]
	wb.stages[u].Run(d, st, (*wb.src[d])[us.lo*pl:us.hi*pl], nil)
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
	exchange.Release(wb.narrow)
	wb.send, wb.recv, wb.narrow = nil, nil, nil
}
