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
// The kernels move the band of a band-limited transform (SetBand; the
// full slab from NewSlabLayout): the first KB elements of every x row
// whose global z index is in Band. Blocks keep their full-slab
// positions, so only what is copied shrinks. Rows outside the band are
// not read on either side; the YZ kernels store +0 over their
// KB-prefix in the destination, where the z lines read it, and the ZY
// kernels leave them alone. Columns past KB are neither read nor
// written.
type SlabLayout struct {
	Nxh, Ny, Nz int
	My, Mz      int
	P           int
	Block       int       // elements per per-rank block: Mz·My·Nxh
	Total       int       // elements per slab: Mz·Ny·Nxh = My·Nz·Nxh
	KB          int       // in-band prefix of each x row
	Band        grid.Band // of the global z axis, Nz long
}

// NewSlabLayout derives the slab transpose geometry for a Fourier-side
// slab of shape [mz][ny][nxh] split across p ranks, at the full band.
// ny must be divisible by p.
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
	}
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

// RemoteElems reports how many elements rank me's gathers read from
// the other ranks' slabs in each direction under the band: YZ gathers
// KB elements of each of its My rows from every in-band z plane a peer
// holds, ZY gathers KB elements of each of a peer's My rows into every
// in-band z plane me holds. At the full band both are the off-diagonal
// blocks, Total − Block.
func (l *SlabLayout) RemoteElems(me int) (yz, zy int) {
	mine := l.Band.Count(me*l.Mz, (me+1)*l.Mz)
	return (l.Band.Count(0, l.Nz) - mine) * l.My * l.KB, (l.P - 1) * mine * l.My * l.KB
}

func (l *SlabLayout) check(op string, dst, src int) {
	if dst < l.Total || src < l.Total {
		panic(fmt.Sprintf("transpose: %s needs %d elements, got dst %d src %d", op, l.Total, dst, src))
	}
}

// PackYZRange packs rank me's z-planes [izLo,izHi) of the Fourier-side
// slab into all p destination blocks — the in-band ones, KB elements a
// row. Distinct iz ranges write disjoint dst elements, so concurrent
// calls over a partition of [0,Mz) are safe.
//
//psdns:hotpath
func PackYZRange[T any](l *SlabLayout, dst, src []T, me, izLo, izHi int) {
	nxh, ny, my, bs, kb := l.Nxh, l.Ny, l.My, l.Block, l.KB
	for d := 0; d < l.P; d++ {
		blk := dst[d*bs : (d+1)*bs]
		for iz := izLo; iz < izHi; iz++ {
			if !l.Band.Has(me*l.Mz + iz) {
				continue
			}
			for iy := 0; iy < my; iy++ {
				srcOff := (iz*ny + d*my + iy) * nxh
				dstOff := (iz*my + iy) * nxh
				copy(blk[dstOff:dstOff+kb], src[srcOff:srcOff+kb])
			}
		}
	}
}

// UnpackYZRange scatters received blocks into y-rows [iyLo,iyHi) of the
// physical-side slab: KB elements of each in-band row, +0 over the
// KB-prefix of the others. Distinct iy ranges write disjoint dst
// elements.
//
//psdns:hotpath
func UnpackYZRange[T any](l *SlabLayout, dst, src []T, iyLo, iyHi int) {
	nxh, nz, my, mz, bs, kb := l.Nxh, l.Nz, l.My, l.Mz, l.Block, l.KB
	for s := 0; s < l.P; s++ {
		blk := src[s*bs : (s+1)*bs]
		for iz := 0; iz < mz; iz++ {
			in := l.Band.Has(s*mz + iz)
			for iy := iyLo; iy < iyHi; iy++ {
				dstOff := (iy*nz + s*mz + iz) * nxh
				if !in {
					clear(dst[dstOff : dstOff+kb])
					continue
				}
				srcOff := (iz*my + iy) * nxh
				copy(dst[dstOff:dstOff+kb], blk[srcOff:srcOff+kb])
			}
		}
	}
}

// PackZYRange packs y-rows [iyLo,iyHi) of the physical-side slab into
// all p destination blocks — the in-band z rows, KB elements each.
// Distinct iy ranges write disjoint dst elements.
//
//psdns:hotpath
func PackZYRange[T any](l *SlabLayout, dst, src []T, iyLo, iyHi int) {
	nxh, nz, mz, bs, kb := l.Nxh, l.Nz, l.Mz, l.Block, l.KB
	for d := 0; d < l.P; d++ {
		blk := dst[d*bs : (d+1)*bs]
		for iy := iyLo; iy < iyHi; iy++ {
			for iz := 0; iz < mz; iz++ {
				if !l.Band.Has(d*mz + iz) {
					continue
				}
				srcOff := (iy*nz + d*mz + iz) * nxh
				dstOff := (iy*mz + iz) * nxh
				copy(blk[dstOff:dstOff+kb], src[srcOff:srcOff+kb])
			}
		}
	}
}

// UnpackZYRange scatters received blocks into rank me's z-planes
// [izLo,izHi) of the Fourier-side slab — the in-band ones, KB elements
// a row. Distinct iz ranges write disjoint dst elements.
//
//psdns:hotpath
func UnpackZYRange[T any](l *SlabLayout, dst, src []T, me, izLo, izHi int) {
	nxh, ny, my, mz, bs, kb := l.Nxh, l.Ny, l.My, l.Mz, l.Block, l.KB
	for s := 0; s < l.P; s++ {
		blk := src[s*bs : (s+1)*bs]
		for iy := 0; iy < my; iy++ {
			for iz := izLo; iz < izHi; iz++ {
				if !l.Band.Has(me*mz + iz) {
					continue
				}
				srcOff := (iy*mz + iz) * nxh
				dstOff := (iz*ny + s*my + iy) * nxh
				copy(dst[dstOff:dstOff+kb], blk[srcOff:srcOff+kb])
			}
		}
	}
}
