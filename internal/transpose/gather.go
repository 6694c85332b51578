package transpose

// Fused transpose-exchange gather kernels. Ranks in the in-process
// runtime share one address space, so the destination-side kernel can
// perform its strided gathers directly from every peer's source slab —
// the software analogue of the paper's §4 zero-copy kernels whose SM
// threads read pinned host memory in place instead of bouncing data
// through staging buffers: one parallel pass instead of pack,
// all-to-all and unpack.
//
// srcs[s] is rank s's published source slab (see mpi.ExchangePlan for
// the publication protocol) from the layout's plane Lo on, the planes
// its range moves (see SlabLayout); me is the gathering rank. Each kernel
// writes only the dst elements owned by its outer-index range, so a
// worker team can split a kernel over a partition of that range
// without write conflicts.
//
// The *Peer variants gather one source slab's contribution only; a
// chunked-fused exchange calls them in pairwise-exchange order
// (round k gathers from peer (me+k)%P) so that at any moment each
// source slab is read by a single rank's worker team.

// GatherYZRange gathers y-rows [iyLo,iyHi) of the physical-side slab
// dst=[My][Nz][Nxh] directly from every peer's Fourier-side slab
// srcs[s]=[Mz][Ny][Nxh] in one pass. Distinct iy ranges write disjoint
// dst elements.
//
//psdns:hotpath
func GatherYZRange[T any](l *SlabLayout, dst []T, srcs [][]T, me, iyLo, iyHi int) {
	for s := 0; s < l.P; s++ {
		GatherYZPeer(l, dst, srcs[s], me, s, iyLo, iyHi)
	}
}

// GatherYZPeer gathers peer s's contribution to y-rows [iyLo,iyHi) of
// the physical-side slab: src is rank s's Fourier-side slab, whose
// z-planes of the range land in dst's z rows s·Mz+Lo… — KB elements of
// each in-band row, +0 over the KB-prefix of the others (see
// SlabLayout).
//
//psdns:hotpath
func GatherYZPeer[T any](l *SlabLayout, dst, src []T, me, s, iyLo, iyHi int) {
	nxh, ny, nz, kb, n := l.Nxh, l.Ny, l.Nz, l.KB, l.Planes(true)
	yBase, zBase := me*l.My, s*l.Mz+l.Lo
	for iz := 0; iz < n; iz++ {
		in := l.Band.Has(zBase + iz)
		srcOff := (iz*ny + yBase + iyLo) * nxh
		dstOff := (iyLo*nz + zBase + iz) * nxh
		for iy := iyLo; iy < iyHi; iy++ {
			if in {
				copy(dst[dstOff:dstOff+kb], src[srcOff:srcOff+kb])
			} else {
				clear(dst[dstOff : dstOff+kb])
			}
			srcOff += nxh
			dstOff += nz * nxh
		}
	}
}

// --- cache-blocked gather variants ---------------------------------------
//
// The plain peer gathers stream one side contiguously and stride the
// other by a whole row of planes (Nz·Nxh or Ny·Nxh elements). At
// N ≥ 128 that stride exceeds 100 KiB, so every step of the strided
// side touches a fresh cache region: by the time the outer loop wraps
// back, the lines it wrote have been evicted and each inner copy pays
// a miss. The blocked variants tile the outer strided dimension so one
// tile's destination lines stay resident across the whole contiguous
// sweep — the classic blocked-transpose traversal. Element order
// within every copied row is unchanged and the copies are disjoint, so
// blocked and plain gathers are bitwise-identical; only the traversal
// order differs. DefaultGatherTile is chosen from the cmd/stridedcopy
// per-tile sweep (8 rows ≈ 8·Nxh·16 B ≈ 2–16 KiB of resident
// destination per tile, comfortably inside L1/L2 across the swept N).

// DefaultGatherTile is the tile depth (in planes of the strided
// dimension) used by the engines' blocked gathers.
const DefaultGatherTile = 8

// GatherYZRangeBlocked is GatherYZRange with cache-blocked peer
// gathers. Bitwise-identical output; tiled traversal.
//
//psdns:hotpath
func GatherYZRangeBlocked[T any](l *SlabLayout, dst []T, srcs [][]T, me, iyLo, iyHi, tile int) {
	for s := 0; s < l.P; s++ {
		GatherYZPeerBlocked(l, dst, srcs[s], me, s, iyLo, iyHi, tile)
	}
}

// GatherYZPeerBlocked is GatherYZPeer with the iz dimension tiled: for
// each tile of z-planes the iy sweep writes contiguous runs of
// tile·Nxh destination elements (consecutive iz are adjacent in dst)
// while reading source rows that advance contiguously in iy, so both
// sides stay inside a tile-bounded working set instead of striding a
// full Nz·Nxh row per step.
//
//psdns:hotpath
func GatherYZPeerBlocked[T any](l *SlabLayout, dst, src []T, me, s, iyLo, iyHi, tile int) {
	nxh, ny, nz, kb, n := l.Nxh, l.Ny, l.Nz, l.KB, l.Planes(true)
	if tile <= 0 {
		tile = n
	}
	yBase, zBase := me*l.My, s*l.Mz+l.Lo
	for izLo := 0; izLo < n; izLo += tile {
		izHi := min(izLo+tile, n)
		for iy := iyLo; iy < iyHi; iy++ {
			srcOff := (izLo*ny + yBase + iy) * nxh
			dstOff := (iy*nz + zBase + izLo) * nxh
			for iz := izLo; iz < izHi; iz++ {
				if l.Band.Has(zBase + iz) {
					copy(dst[dstOff:dstOff+kb], src[srcOff:srcOff+kb])
				} else {
					clear(dst[dstOff : dstOff+kb])
				}
				srcOff += ny * nxh
				dstOff += nxh
			}
		}
	}
}

// GatherZYRangeBlocked gathers z-planes [izLo,izHi) of the
// Fourier-side slab dst=[Mz][Ny][Nxh] directly from every peer's
// physical-side slab srcs[s]=[My][Nz][Nxh] with cache-blocked peer
// gathers. Distinct iz ranges write disjoint dst elements. The tests keep the plain gather
// (GatherZYRange) as its oracle.
//
//psdns:hotpath
func GatherZYRangeBlocked[T any](l *SlabLayout, dst []T, srcs [][]T, me, izLo, izHi, tile int) {
	for s := 0; s < l.P; s++ {
		GatherZYPeerBlocked(l, dst, srcs[s], me, s, izLo, izHi, tile)
	}
}

// GatherZYPeerBlocked gathers peer s's contribution to z-planes
// [izLo,izHi) of the Fourier-side slab: src is rank s's physical-side
// slab, whose y-planes of the range land in dst's y rows s·My+Lo… of
// the in-band planes, KB elements each (see SlabLayout). The iy
// dimension is tiled: for each tile of y-rows the iz sweep writes
// contiguous runs of tile·Nxh destination elements while the source
// advances contiguously in iz.
//
//psdns:hotpath
func GatherZYPeerBlocked[T any](l *SlabLayout, dst, src []T, me, s, izLo, izHi, tile int) {
	nxh, ny, nz, kb, n := l.Nxh, l.Ny, l.Nz, l.KB, l.Planes(false)
	if tile <= 0 {
		tile = n
	}
	zBase, yBase := me*l.Mz, s*l.My+l.Lo
	for iyLo := 0; iyLo < n; iyLo += tile {
		iyHi := min(iyLo+tile, n)
		for iz := izLo; iz < izHi; iz++ {
			if !l.Band.Has(zBase + iz) {
				continue
			}
			srcOff := (iyLo*nz + zBase + iz) * nxh
			dstOff := (iz*ny + yBase + iyLo) * nxh
			for iy := iyLo; iy < iyHi; iy++ {
				copy(dst[dstOff:dstOff+kb], src[srcOff:srcOff+kb])
				srcOff += nz * nxh
				dstOff += nxh
			}
		}
	}
}
