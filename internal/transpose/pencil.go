package transpose

// Pencil-decomposition layouts and the column transpose kernels.
//
// A pencil decomposition distributes the N³ field over a Pr×Pc
// process grid: rank (yG, zG) owns the y range [yG·My, (yG+1)·My) and
// z range [zG·Mz, (zG+1)·Mz) of the physical field, with the x axis
// complete — an N/Pr × N/Pc × N pencil. Unlike the slab layout this
// scales past P = N ranks: only Pr and Pc individually must divide N.
//
// The distributed transform then needs two transpose-exchanges instead
// of the slab's one, each over a sub-communicator of the process grid
// and each the same staged Pack/A2A/Unpack triple or fused zero-copy
// gather. x stays the fastest axis of every layout, so both exchanges
// move whole x-rows with copy and every FFT pass runs in plane form:
//
//   - the column exchange (within a column group of Pc ranks sharing
//     yG) trades the local z chunk for a full z extent by splitting
//     the Hermitian-reduced x axis over the group — x-complete
//     X = [My][Mz][Nxh] ↔ z-complete B = [My][Nz][Wc]. Its kernels are
//     below; at Pc = 1 it is the identity and the engine builds none.
//   - the row exchange (within a row group of Pr ranks sharing zG)
//     trades the local y chunk for a full y extent by re-splitting z
//     over the group — z-complete B = [My][Nz][Wc] ↔ y-complete
//     C = [Mz2][Ny][Wc]. That is the slab transpose with Nxh := Wc:
//     NewSlabLayout(Wc, N, Mz2, Pr) and the slab kernels of layout.go
//     and gather.go move it.
//
// Nxh = N/2+1 is in general not divisible by Pc, so the x axis splits
// unevenly: SplitSpan gives the first Nxh%Pc column groups one extra
// element. Kernels take the per-group spans from the layout; the
// staged pack blocks are padded to the widest span so the persistent
// all-to-all keeps its even-block shape.

// Span is a half-open index range [Lo, Hi).
type Span struct{ Lo, Hi int }

// Width returns the number of indices in the span.
func (s Span) Width() int { return s.Hi - s.Lo }

// SplitSpan divides [0, total) into parts contiguous spans, the first
// total%parts spans one element wider — the standard uneven-split
// convention, identical on every rank.
func SplitSpan(total, parts int) []Span {
	q, r := total/parts, total%parts
	spans := make([]Span, parts)
	lo := 0
	for i := range spans {
		w := q
		if i < r {
			w++
		}
		spans[i] = Span{Lo: lo, Hi: lo + w}
		lo += w
	}
	return spans
}

// PencilLayout captures one rank's geometry in a Pr×Pc pencil
// decomposition of an N³ real field, as seen from grid position
// (YRank, ZRank).
type PencilLayout struct {
	// N is the transform size per axis, Nxh = N/2+1 the
	// Hermitian-reduced x extent.
	N, Nxh int
	// Pr×Pc is the process grid; YRank indexes the rank's row group
	// position (its column communicator rank), ZRank its column group
	// position (its row communicator rank).
	Pr, Pc       int
	YRank, ZRank int
	// My = N/Pr and Mz = N/Pc are the physical pencil's local y and z
	// extents. Mz2 = N/Pr is the local z extent of the y-complete
	// spectral layout C (z re-splits over the row group).
	My, Mz, Mz2 int
	// XSpans is the uneven split of [0, Nxh) over the Pc column
	// groups; Wc = XSpans[ZRank].Width() is this rank's x width in
	// the z- and y-complete layouts, XLo its offset, WcMax the widest
	// group's width.
	XSpans  []Span
	Wc, XLo int
	WcMax   int
	// BlockC is the per-peer staged block size of the column exchange,
	// padded to WcMax so the column all-to-all keeps even blocks
	// despite the uneven x split; only the leading My·Mz·width(peer)
	// elements of each block are meaningful.
	BlockC int
	// PadXLen is len(X) rounded up to a multiple of Pc: My·Mz·Nxh
	// need not divide evenly by the column group size, and the fused
	// exchange plans require a group-divisible published length. The
	// padding tail is never read.
	PadXLen int
}

// NewPencilLayout builds the layout for grid position (yRank, zRank)
// of a Pr×Pc decomposition of an N³ field. It panics when the
// decomposition cannot lay out the field: Pr and Pc must divide N and
// every column group must own a non-empty x span (Pc ≤ N/2+1).
func NewPencilLayout(n, pr, pc, yRank, zRank int) *PencilLayout {
	if n <= 0 || n%2 != 0 {
		panic("transpose: pencil layout needs even N > 0")
	}
	if pr <= 0 || pc <= 0 || n%pr != 0 || n%pc != 0 {
		panic("transpose: pencil grid dims must divide N")
	}
	nxh := n/2 + 1
	if pc > nxh {
		panic("transpose: Pc exceeds N/2+1 (empty x spans)")
	}
	if yRank < 0 || yRank >= pr || zRank < 0 || zRank >= pc {
		panic("transpose: pencil grid position out of range")
	}
	l := &PencilLayout{
		N: n, Nxh: nxh,
		Pr: pr, Pc: pc,
		YRank: yRank, ZRank: zRank,
		My: n / pr, Mz: n / pc, Mz2: n / pr,
		XSpans: SplitSpan(nxh, pc),
	}
	l.Wc = l.XSpans[zRank].Width()
	l.XLo = l.XSpans[zRank].Lo
	l.WcMax = l.XSpans[0].Width()
	l.BlockC = l.My * l.Mz * l.WcMax
	xlen := l.My * l.Mz * l.Nxh
	l.PadXLen = (xlen + pc - 1) / pc * pc
	return l
}

// BLen and CLen are the (unpadded) element counts of the B and C
// exchange layouts; X holds My·Mz·Nxh.
func (l *PencilLayout) BLen() int { return l.My * l.N * l.Wc }
func (l *PencilLayout) CLen() int { return l.Mz2 * l.N * l.Wc }

// --- column exchange (x-complete ↔ z-complete, within a column group) ----
//
// Every kernel is one shape of copy: for each y-plane of a range, the
// Mz z-rows one peer exchanges with this rank, each a run of
// consecutive x elements. Only the offsets and strides of the two
// sides differ — X rows are Nxh apart; a w-wide rank's B rows are w
// apart with peer s's z chunk starting at row s·Mz; the staged block
// between two ranks is [My][Mz][w] with w the x width of the
// z-complete side — so copyRuns is the one loop and each kernel names
// its two geometries. Where both sides hold the Mz rows back to back
// (B ↔ staged block) the plane moves as a single run. Distinct y
// ranges write disjoint destination elements, so a worker team may
// split any kernel over a partition of [0, My).

// copyRuns copies, for every unit in [lo,hi) and each of rows rows,
// the w-long run at src[sOff+unit·sUnit+row·sRow:] to
// dst[dOff+unit·dUnit+row·dRow:].
//
//psdns:hotpath
func copyRuns[T any](dst []T, dOff, dUnit, dRow int, src []T, sOff, sUnit, sRow, w, rows, lo, hi int) {
	for u := lo; u < hi; u++ {
		d, s := dOff+u*dUnit, sOff+u*sUnit
		for r := 0; r < rows; r++ {
			copy(dst[d:d+w], src[s:s+w])
			d += dRow
			s += sRow
		}
	}
}

// PencilPackColFwdRange packs y-planes [iyLo,iyHi) of the x-complete
// layout src=[My][Mz][Nxh] into per-destination blocks: block d holds
// [My][Mz][Width(d)] — destination d's x span, row by row — padded to
// BlockC.
//
//psdns:hotpath
func PencilPackColFwdRange[T any](l *PencilLayout, pack, src []T, iyLo, iyHi int) {
	for d, sp := range l.XSpans {
		wd := sp.Width()
		copyRuns(pack, d*l.BlockC, l.Mz*wd, wd, src, sp.Lo, l.Mz*l.Nxh, l.Nxh, wd, l.Mz, iyLo, iyHi)
	}
}

// PencilUnpackColFwdRange unpacks received column blocks into y-planes
// [iyLo,iyHi) of the z-complete layout dst=[My][Nz][Wc]: recv block s
// ([My][Mz][Wc], padded to BlockC) is peer s's z chunk of this rank's
// x span.
//
//psdns:hotpath
func PencilUnpackColFwdRange[T any](l *PencilLayout, dst, recv []T, iyLo, iyHi int) {
	run := l.Mz * l.Wc
	for s := 0; s < l.Pc; s++ {
		copyRuns(dst, s*run, l.N*l.Wc, 0, recv, s*l.BlockC, run, 0, run, 1, iyLo, iyHi)
	}
}

// PencilGatherColFwdPeer gathers peer s's contribution to y-planes
// [iyLo,iyHi) of the z-complete layout dst=[My][Nz][Wc] directly from
// its x-complete layout src=[My][Mz][Nxh] (padded): peer s's z chunk
// lands in dst's z range [s·Mz,(s+1)·Mz), and dst keeps only this
// rank's x span.
//
//psdns:hotpath
func PencilGatherColFwdPeer[T any](l *PencilLayout, dst, src []T, s, iyLo, iyHi int) {
	copyRuns(dst, s*l.Mz*l.Wc, l.N*l.Wc, l.Wc, src, l.XLo, l.Mz*l.Nxh, l.Nxh, l.Wc, l.Mz, iyLo, iyHi)
}

// PencilGatherColFwdRange is PencilGatherColFwdPeer over every
// column-group peer: the fused form of pack, all-to-all and unpack.
//
//psdns:hotpath
func PencilGatherColFwdRange[T any](l *PencilLayout, dst []T, srcs [][]T, iyLo, iyHi int) {
	for s, src := range srcs {
		PencilGatherColFwdPeer(l, dst, src, s, iyLo, iyHi)
	}
}

// PencilPackColInvRange packs y-planes [iyLo,iyHi) of the z-complete
// layout src=[My][Nz][Wc] into per-destination blocks: block d holds
// [My][Mz][Wc] — destination d's z chunk — padded to BlockC.
//
//psdns:hotpath
func PencilPackColInvRange[T any](l *PencilLayout, pack, src []T, iyLo, iyHi int) {
	run := l.Mz * l.Wc
	for d := 0; d < l.Pc; d++ {
		copyRuns(pack, d*l.BlockC, run, 0, src, d*run, l.N*l.Wc, 0, run, 1, iyLo, iyHi)
	}
}

// PencilUnpackColInvRange unpacks received column blocks into y-planes
// [iyLo,iyHi) of the x-complete layout dst=[My][Mz][Nxh]: recv block s
// ([My][Mz][Width(s)], padded to BlockC) is peer s's x span of this
// rank's z chunk.
//
//psdns:hotpath
func PencilUnpackColInvRange[T any](l *PencilLayout, dst, recv []T, iyLo, iyHi int) {
	for s, sp := range l.XSpans {
		ws := sp.Width()
		copyRuns(dst, sp.Lo, l.Mz*l.Nxh, l.Nxh, recv, s*l.BlockC, l.Mz*ws, ws, ws, l.Mz, iyLo, iyHi)
	}
}

// PencilGatherColInvPeer gathers peer s's x span into y-planes
// [iyLo,iyHi) of the x-complete layout dst=[My][Mz][Nxh] directly from
// its z-complete layout src=[My][Nz][Width(s)], of which only this
// rank's z chunk [ZRank·Mz, …) is read.
//
//psdns:hotpath
func PencilGatherColInvPeer[T any](l *PencilLayout, dst, src []T, s, iyLo, iyHi int) {
	sp := l.XSpans[s]
	ws := sp.Width()
	copyRuns(dst, sp.Lo, l.Mz*l.Nxh, l.Nxh, src, l.ZRank*l.Mz*ws, l.N*ws, ws, ws, l.Mz, iyLo, iyHi)
}

// PencilGatherColInvRange is PencilGatherColInvPeer over every
// column-group peer.
//
//psdns:hotpath
func PencilGatherColInvRange[T any](l *PencilLayout, dst []T, srcs [][]T, iyLo, iyHi int) {
	for s, src := range srcs {
		PencilGatherColInvPeer(l, dst, src, s, iyLo, iyHi)
	}
}
