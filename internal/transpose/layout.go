package transpose

import (
	"fmt"

	"repro/internal/grid"
)

// SlabLayout is the precomputed geometry of the slab y↔z transpose:
// every stride, extent and bound the gather kernels need, derived once
// at plan time instead of on every call. Plans (pfft, core) hold one
// SlabLayout and the per-call kernels reduce to pure copy loops over a
// sub-interval of destination-disjoint indices, so a worker team can
// split one kernel across workers without write conflicts.
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
// slab starts there. Destination slabs are whole; a range writes only
// the rows its planes land in.
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
// y-planes (ZY) of a rank's source slab.
func (l *SlabLayout) Planes(yz bool) int {
	if yz {
		return max(0, min(l.Hi, l.Mz)-l.Lo)
	}
	return max(0, min(l.Hi, l.My)-l.Lo)
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

// PackElems reports how many elements rank me's source planes of the
// range hold in direction yz — what the single-precision wire's
// narrowing pack writes: the KB columns of every row of its in-band
// z-planes (YZ), of every in-band z row of its y-planes (ZY).
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
