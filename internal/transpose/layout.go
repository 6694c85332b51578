package transpose

import (
	"fmt"

	"repro/internal/grid"
)

// SlabLayout is the precomputed geometry of the slab y↔z transpose:
// every stride, block size and bound the pack/unpack kernels need,
// derived once at plan time instead of on every call. Plans (pfft,
// core) hold one SlabLayout and the per-call kernels reduce to pure
// copy loops; the *Range variants additionally restrict the outer loop
// to a sub-interval of destination-disjoint indices so a worker team
// can split one kernel across workers without write conflicts.
//
// Geometry (see the package comment): Fourier side [Mz][Ny][Nxh],
// physical side [My][Nz][Nxh], with My = Ny/P and Nz = Mz·P.
//
// The kernels move the source planes [Lo, Hi) (Range; all of them from
// NewSlabLayout): z-planes of the Fourier side under YZ, y-planes of
// the physical side under ZY, clipped to that side's Mz or My planes.
// So one layout serves a whole-slab exchange and each plane group of a
// per-pencil one, the paper's two granularities of one transpose. A
// range publishes its source from plane Lo — every kernel's source
// slab starts there — and its staged blocks are compact: block d holds
// the range's planes, My (YZ) or Mz (ZY) rows each, KB elements a row
// (BlockLen). Destination slabs are whole; a range writes only the rows
// its planes land in.
//
// Within the range the kernels move the band of a band-limited
// transform (SetBand; the full slab from NewSlabLayout): the first KB
// elements of every x row whose global z index is in Band. Rows
// outside the band are not read on either side; the YZ kernels store
// +0 over their KB-prefix in the destination, where the z lines read
// it, and the ZY kernels leave them alone. Columns past KB are neither
// read nor written.
type SlabLayout struct {
	Nxh, Ny, Nz int
	My, Mz      int
	P           int
	Block       int       // elements per whole-slab, full-band block: Mz·My·Nxh
	Total       int       // elements per slab: Mz·Ny·Nxh = My·Nz·Nxh
	KB          int       // in-band prefix of each x row
	Band        grid.Band // of the global z axis, Nz long
	Lo, Hi      int       // the source planes moved, before clipping
}

// NewSlabLayout derives the slab transpose geometry for a Fourier-side
// slab of shape [mz][ny][nxh] split across p ranks, over every plane
// at the full band. ny must be divisible by p.
func NewSlabLayout(nxh, ny, mz, p int) SlabLayout {
	if p < 1 || ny%p != 0 {
		panic(fmt.Sprintf("transpose: ny=%d not divisible by p=%d", ny, p))
	}
	my := ny / p
	return SlabLayout{
		Nxh: nxh, Ny: ny, Nz: mz * p,
		My: my, Mz: mz, P: p,
		Block: mz * my * nxh,
		Total: mz * ny * nxh,
		KB:    nxh,
		Band:  grid.NewBand(mz*p, -1),
		Hi:    max(mz, my),
	}
}

// Range returns the layout over source planes [lo, hi) of the slab,
// 0 ≤ lo ≤ hi ≤ max(Mz, My), at l's band. Plan time.
func (l SlabLayout) Range(lo, hi int) SlabLayout {
	if lo < 0 || lo > hi || hi > max(l.Mz, l.My) {
		panic(fmt.Sprintf("transpose: plane range [%d,%d) outside a slab of %d z-planes, %d y-planes", lo, hi, l.Mz, l.My))
	}
	l.Lo, l.Hi = lo, hi
	return l
}

// SetBand restricts the kernels to the kb-element prefix of the rows
// whose global z index is in band; kb = Nxh with the full band is the
// whole slab. Plan time: every rank of the exchange sets the same band
// (its kb may differ only across exchanges).
func (l *SlabLayout) SetBand(kb int, band grid.Band) {
	if kb < 0 || kb > l.Nxh || band.N != l.Nz {
		panic(fmt.Sprintf("transpose: band kb=%d over a %d-point z axis for a slab of %d columns, %d z rows", kb, band.N, l.Nxh, l.Nz))
	}
	l.KB, l.Band = kb, band
}

// Planes reports how many source planes the range moves in direction
// yz (YZ: true): [Lo, Hi) clipped to the Mz z-planes (YZ) or the My
// y-planes (ZY) of a rank's source slab. It is the pack kernels'
// outer extent.
func (l *SlabLayout) Planes(yz bool) int {
	if yz {
		return max(0, min(l.Hi, l.Mz)-l.Lo)
	}
	return max(0, min(l.Hi, l.My)-l.Lo)
}

// BlockLen reports the elements of one staged block in direction yz
// at the current band: the range's planes, My (YZ) or Mz (ZY) rows
// each, KB elements a row. Over the whole slab at the full band it is
// Block.
func (l *SlabLayout) BlockLen(yz bool) int {
	if yz {
		return l.Planes(yz) * l.My * l.KB
	}
	return l.Planes(yz) * l.Mz * l.KB
}

// RemoteElems reports how many elements rank me's gathers read from
// the other ranks' slabs in direction yz under the band: YZ gathers KB
// elements of each of its My rows from every in-band z-plane of the
// range a peer holds, ZY gathers KB elements of each of a peer's
// y-planes of the range into every in-band z-plane me holds. Over the
// whole slab at the full band both are the off-diagonal blocks, Total
// − Total/P.
func (l *SlabLayout) RemoteElems(me int, yz bool) int {
	if !yz {
		return (l.P - 1) * l.Band.Count(me*l.Mz, (me+1)*l.Mz) * l.Planes(yz) * l.KB
	}
	in := 0
	for s := 0; s < l.P; s++ {
		if s != me {
			in += l.Band.Count(s*l.Mz+l.Lo, s*l.Mz+l.Lo+l.Planes(yz))
		}
	}
	return in * l.My * l.KB
}

// PackElems reports how many elements rank me's packs write over the
// range in direction yz, its own block included: the KB columns of
// every row of its in-band z-planes (YZ), of every in-band z row of
// its y-planes (ZY).
func (l *SlabLayout) PackElems(me int, yz bool) int {
	if !yz {
		return l.Planes(yz) * l.Band.Count(0, l.Nz) * l.KB
	}
	return l.Band.Count(me*l.Mz+l.Lo, me*l.Mz+l.Lo+l.Planes(yz)) * l.Ny * l.KB
}

// Source is the part of a whole source slab the range publishes and
// its kernels read: planes [Lo, Hi) of the Fourier side (YZ) or of the
// physical side (ZY), clipped; empty when no plane is left.
//
//psdns:hotpath
func Source[T any](l *SlabLayout, slab []T, yz bool) []T {
	plane := l.Nz * l.Nxh
	if yz {
		plane = l.Ny * l.Nxh
	}
	if n := l.Planes(yz); n > 0 {
		return slab[l.Lo*plane : (l.Lo+n)*plane]
	}
	return slab[:0]
}

func (l *SlabLayout) check(op string, dst, src int) {
	if dst < l.Total || src < l.Total {
		panic(fmt.Sprintf("transpose: %s needs %d elements, got dst %d src %d", op, l.Total, dst, src))
	}
}

// PackYZRange packs z-planes [izLo,izHi) of the range — 0 is plane Lo
// of rank me's Fourier-side slab, src starts there — into all P
// destination blocks: the in-band ones, KB elements a row. Distinct iz
// ranges write disjoint dst elements, so concurrent calls over a
// partition of [0,Planes(true)) are safe.
//
//psdns:hotpath
func PackYZRange[T any](l *SlabLayout, dst, src []T, me, izLo, izHi int) {
	nxh, ny, my, kb, bs := l.Nxh, l.Ny, l.My, l.KB, l.BlockLen(true)
	for d := 0; d < l.P; d++ {
		blk := dst[d*bs : (d+1)*bs]
		for iz := izLo; iz < izHi; iz++ {
			if !l.Band.Has(me*l.Mz + l.Lo + iz) {
				continue
			}
			for iy := 0; iy < my; iy++ {
				srcOff := (iz*ny + d*my + iy) * nxh
				dstOff := (iz*my + iy) * kb
				copy(blk[dstOff:dstOff+kb], src[srcOff:srcOff+kb])
			}
		}
	}
}

// UnpackYZRange scatters received blocks into y-rows [iyLo,iyHi) of the
// physical-side slab, the z rows the range's planes land in: KB
// elements of each in-band row, +0 over the KB-prefix of the others.
// Distinct iy ranges write disjoint dst elements.
//
//psdns:hotpath
func UnpackYZRange[T any](l *SlabLayout, dst, src []T, iyLo, iyHi int) {
	nxh, nz, my, mz, kb, n, bs := l.Nxh, l.Nz, l.My, l.Mz, l.KB, l.Planes(true), l.BlockLen(true)
	for s := 0; s < l.P; s++ {
		blk := src[s*bs : (s+1)*bs]
		for iz := 0; iz < n; iz++ {
			z := s*mz + l.Lo + iz
			in := l.Band.Has(z)
			for iy := iyLo; iy < iyHi; iy++ {
				dstOff := (iy*nz + z) * nxh
				if !in {
					clear(dst[dstOff : dstOff+kb])
					continue
				}
				srcOff := (iz*my + iy) * kb
				copy(dst[dstOff:dstOff+kb], blk[srcOff:srcOff+kb])
			}
		}
	}
}

// PackZYRange packs y-planes [iyLo,iyHi) of the range — 0 is plane Lo
// of the physical-side slab, src starts there — into all P destination
// blocks: the in-band z rows, KB elements each. Distinct iy ranges
// write disjoint dst elements.
//
//psdns:hotpath
func PackZYRange[T any](l *SlabLayout, dst, src []T, iyLo, iyHi int) {
	nxh, nz, mz, kb, bs := l.Nxh, l.Nz, l.Mz, l.KB, l.BlockLen(false)
	for d := 0; d < l.P; d++ {
		blk := dst[d*bs : (d+1)*bs]
		for iy := iyLo; iy < iyHi; iy++ {
			for iz := 0; iz < mz; iz++ {
				if !l.Band.Has(d*mz + iz) {
					continue
				}
				srcOff := (iy*nz + d*mz + iz) * nxh
				dstOff := (iy*mz + iz) * kb
				copy(blk[dstOff:dstOff+kb], src[srcOff:srcOff+kb])
			}
		}
	}
}

// UnpackZYRange scatters received blocks into rank me's z-planes
// [izLo,izHi) of the Fourier-side slab — the in-band ones, KB elements
// of each y row the range's planes land in. Distinct iz ranges write
// disjoint dst elements.
//
//psdns:hotpath
func UnpackZYRange[T any](l *SlabLayout, dst, src []T, me, izLo, izHi int) {
	nxh, ny, my, mz, kb, n, bs := l.Nxh, l.Ny, l.My, l.Mz, l.KB, l.Planes(false), l.BlockLen(false)
	for s := 0; s < l.P; s++ {
		blk := src[s*bs : (s+1)*bs]
		for iy := 0; iy < n; iy++ {
			for iz := izLo; iz < izHi; iz++ {
				if !l.Band.Has(me*mz + iz) {
					continue
				}
				srcOff := (iy*mz + iz) * kb
				dstOff := (iz*ny + s*my + l.Lo + iy) * nxh
				copy(dst[dstOff:dstOff+kb], blk[srcOff:srcOff+kb])
			}
		}
	}
}
