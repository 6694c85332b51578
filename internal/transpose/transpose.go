// Package transpose implements the pack and unpack kernels that
// surround every MPI all-to-all in the DNS: the slab y↔z transposes of
// the paper's 1D-decomposed GPU code (Fig 2/Fig 6) and the row/column
// transposes of the 2D pencil-decomposed CPU baseline. Pack layouts
// are chosen so each destination receives one contiguous block, the
// property the paper exploits by fusing packing into a single strided
// device-to-host copy.
package transpose

import "fmt"

// CopyStrided copies nrows rows of rowLen contiguous elements from src
// to dst, advancing by the given strides between rows — the software
// analogue of cudaMemcpy2D that both host packing and the simulated
// device copies share.
//
// Fully-contiguous transfers (both strides equal to the row length,
// cudaMemcpy2D degenerating to cudaMemcpy) collapse into a single
// copy, and the strided loop carries running offsets instead of
// recomputing r·stride slice bounds per row; BenchmarkCopyStrided
// pins both shapes.
//
//psdns:hotpath
func CopyStrided[T any](dst []T, dstStride int, src []T, srcStride, rowLen, nrows int) {
	if nrows <= 0 || rowLen <= 0 {
		return
	}
	if dstStride == rowLen && srcStride == rowLen {
		copy(dst[:rowLen*nrows], src[:rowLen*nrows])
		return
	}
	dOff, sOff := 0, 0
	for r := 0; r < nrows; r++ {
		copy(dst[dOff:dOff+rowLen], src[sOff:sOff+rowLen])
		dOff += dstStride
		sOff += srcStride
	}
}

// ZeroOutOfBand stores +0 over what a band-limited transform drops
// from the w columns of a y-complete plane [n][stride] (rows are ky
// storage indices, plane[0] is the first of the w columns): all w
// columns of the rows [gapLo, gapHi) outside the band, and the columns
// [kb, w) past the band's x width in every other row. kb = 0 clears the
// columns outright (a plane whose kz is outside the band); kb = w
// clears the gap rows only (w = kb of a wider plane: their in-band
// prefix), and with an empty gap — the full band — touches nothing.
//
//psdns:hotpath
func ZeroOutOfBand(plane []complex128, n, stride, w, kb, gapLo, gapHi int) {
	for off := gapLo * stride; off < gapHi*stride; off += stride {
		clear(plane[off : off+w])
	}
	if kb == w {
		return
	}
	for r, off := 0, 0; r < n; r, off = r+1, off+stride {
		if r < gapLo || r >= gapHi {
			clear(plane[off+kb : off+w])
		}
	}
}

// --- Slab transposes (1D decomposition) -------------------------------
//
// Fourier-side layout:  [mz][ny][nxh]  (x fastest, z-distributed)
// Physical-side layout: [my][nz][nxh]  (x fastest, y-distributed)
// with my = ny/p and nz = mz·p.

// PackYZ packs the Fourier-side slab src=[mz][ny][nxh] into p
// destination blocks of shape [mz][my][nxh]; block d carries y indices
// [d·my,(d+1)·my). dst must have length mz·ny·nxh.
func PackYZ[T any](dst, src []T, nxh, ny, mz, p int) {
	l := NewSlabLayout(nxh, ny, mz, p)
	l.check("PackYZ", len(dst), len(src))
	PackYZRange(&l, dst, src, 0, 0, mz)
}

// UnpackYZ scatters the received blocks (block s = [mz][my][nxh] from
// rank s) into the physical-side slab dst=[my][nz][nxh].
func UnpackYZ[T any](dst, src []T, nxh, nz, my, p int) {
	l := NewSlabLayout(nxh, my*p, nz/p, p)
	l.check("UnpackYZ", len(dst), len(src))
	UnpackYZRange(&l, dst, src, 0, my)
}

// PackZY packs the physical-side slab src=[my][nz][nxh] into p blocks
// of shape [my][mz][nxh]; block d carries z indices [d·mz,(d+1)·mz).
func PackZY[T any](dst, src []T, nxh, nz, my, p int) {
	l := NewSlabLayout(nxh, my*p, nz/p, p)
	l.check("PackZY", len(dst), len(src))
	PackZYRange(&l, dst, src, 0, my)
}

// UnpackZY scatters the received blocks (block s = [my][mz][nxh] from
// rank s) into the Fourier-side slab dst=[mz][ny][nxh].
func UnpackZY[T any](dst, src []T, nxh, ny, mz, p int) {
	l := NewSlabLayout(nxh, ny, mz, p)
	l.check("UnpackZY", len(dst), len(src))
	UnpackZYRange(&l, dst, src, 0, 0, mz)
}

// PackYZPencil packs only y indices [yLo,yHi) of the Fourier-side slab
// (one GPU-batched pencil of Fig 3) into per-destination sub-blocks of
// shape [mz][overlap][nxh], where overlap is the intersection of
// [yLo,yHi) with the destination's y range. Blocks are laid out
// back-to-back in destination order; the function returns the
// per-destination counts (in elements). This is the "pack one pencil,
// all-to-all one pencil" message layout of configuration B.
func PackYZPencil[T any](dst, src []T, nxh, ny, mz, p, yLo, yHi int) []int {
	counts := make([]int, p)
	PackYZPencilInto(counts, dst, src, nxh, ny, mz, p, yLo, yHi)
	return counts
}

// UnpackYZPencil places a pencil's worth of received blocks into the
// physical-side slab: block s holds z range [s·mz,(s+1)·mz) for the
// intersection of [yLo,yHi) with this rank's y range.
func UnpackYZPencil[T any](dst, src []T, nxh, nz, my, p, myLo, yLo, yHi int) {
	mz := nz / p
	lo := max(yLo, myLo)
	hi := min(yHi, myLo+my)
	if lo >= hi {
		return
	}
	w := hi - lo
	off := 0
	for s := 0; s < p; s++ {
		for iz := 0; iz < mz; iz++ {
			for iy := 0; iy < w; iy++ {
				dstOff := ((lo - myLo + iy) * nz * nxh) + (s*mz+iz)*nxh
				copy(dst[dstOff:dstOff+nxh], src[off:off+nxh])
				off += nxh
			}
		}
	}
}

// --- Pencil (2D decomposition) transposes ------------------------------
//
// Layout A (x-pencils): [mz][my][nx], x complete; y over row comm (Pr),
// z over col comm (Pc).
// Layout B (y-pencils): [mz][mx][ny], y complete and fastest.
// Layout C (z-pencils): [my2][mx][nz], z complete and fastest.

// PackRowAB packs layout A for the row all-to-all that completes y:
// block d = [mz][my][mx] carrying x indices [d·mx,(d+1)·mx).
func PackRowAB[T any](dst, src []T, nx, my, mz, pr int) {
	mx := nx / pr
	checkLen("PackRowAB", len(dst), len(src), mz*my*nx)
	bs := mz * my * mx
	for d := 0; d < pr; d++ {
		blk := dst[d*bs : (d+1)*bs]
		for iz := 0; iz < mz; iz++ {
			for iy := 0; iy < my; iy++ {
				srcOff := (iz*my+iy)*nx + d*mx
				dstOff := (iz*my + iy) * mx
				copy(blk[dstOff:dstOff+mx], src[srcOff:srcOff+mx])
			}
		}
	}
}

// UnpackRowAB scatters the received row blocks into layout B
// [mz][mx][ny] (y fastest): block s carries y range [s·my,(s+1)·my).
func UnpackRowAB[T any](dst, src []T, ny, mx, mz, pr int) {
	my := ny / pr
	checkLen("UnpackRowAB", len(dst), len(src), mz*mx*ny)
	bs := mz * my * mx
	for s := 0; s < pr; s++ {
		blk := src[s*bs : (s+1)*bs]
		for iz := 0; iz < mz; iz++ {
			for iy := 0; iy < my; iy++ {
				for ix := 0; ix < mx; ix++ {
					dst[(iz*mx+ix)*ny+s*my+iy] = blk[(iz*my+iy)*mx+ix]
				}
			}
		}
	}
}

// PackRowBA reverses UnpackRowAB: layout B → row blocks for the
// inverse transpose (block d = [mz][my][mx] carrying y range d).
func PackRowBA[T any](dst, src []T, ny, mx, mz, pr int) {
	my := ny / pr
	checkLen("PackRowBA", len(dst), len(src), mz*mx*ny)
	bs := mz * my * mx
	for d := 0; d < pr; d++ {
		blk := dst[d*bs : (d+1)*bs]
		for iz := 0; iz < mz; iz++ {
			for iy := 0; iy < my; iy++ {
				for ix := 0; ix < mx; ix++ {
					blk[(iz*my+iy)*mx+ix] = src[(iz*mx+ix)*ny+d*my+iy]
				}
			}
		}
	}
}

// UnpackRowBA reverses PackRowAB: received blocks → layout A
// [mz][my][nx] (block s carries x range [s·mx,(s+1)·mx)).
func UnpackRowBA[T any](dst, src []T, nx, my, mz, pr int) {
	mx := nx / pr
	checkLen("UnpackRowBA", len(dst), len(src), mz*my*nx)
	bs := mz * my * mx
	for s := 0; s < pr; s++ {
		blk := src[s*bs : (s+1)*bs]
		for iz := 0; iz < mz; iz++ {
			for iy := 0; iy < my; iy++ {
				dstOff := (iz*my+iy)*nx + s*mx
				srcOff := (iz*my + iy) * mx
				copy(dst[dstOff:dstOff+mx], blk[srcOff:srcOff+mx])
			}
		}
	}
}

// PackColBC packs layout B for the column all-to-all that completes z:
// block d = [mz][mx][my2] carrying y indices [d·my2,(d+1)·my2).
func PackColBC[T any](dst, src []T, ny, mx, mz, pc int) {
	my2 := ny / pc
	checkLen("PackColBC", len(dst), len(src), mz*mx*ny)
	bs := mz * mx * my2
	for d := 0; d < pc; d++ {
		blk := dst[d*bs : (d+1)*bs]
		for iz := 0; iz < mz; iz++ {
			for ix := 0; ix < mx; ix++ {
				srcOff := (iz*mx+ix)*ny + d*my2
				dstOff := (iz*mx + ix) * my2
				copy(blk[dstOff:dstOff+my2], src[srcOff:srcOff+my2])
			}
		}
	}
}

// UnpackColBC scatters the received column blocks into layout C
// [my2][mx][nz] (z fastest): block s carries z range [s·mz,(s+1)·mz).
func UnpackColBC[T any](dst, src []T, nz, mx, my2, pc int) {
	mz := nz / pc
	checkLen("UnpackColBC", len(dst), len(src), my2*mx*nz)
	bs := mz * mx * my2
	for s := 0; s < pc; s++ {
		blk := src[s*bs : (s+1)*bs]
		for iz := 0; iz < mz; iz++ {
			for ix := 0; ix < mx; ix++ {
				for iy := 0; iy < my2; iy++ {
					dst[(iy*mx+ix)*nz+s*mz+iz] = blk[(iz*mx+ix)*my2+iy]
				}
			}
		}
	}
}

// PackColCB reverses UnpackColBC for the inverse transform direction.
func PackColCB[T any](dst, src []T, nz, mx, my2, pc int) {
	mz := nz / pc
	checkLen("PackColCB", len(dst), len(src), my2*mx*nz)
	bs := mz * mx * my2
	for d := 0; d < pc; d++ {
		blk := dst[d*bs : (d+1)*bs]
		for iz := 0; iz < mz; iz++ {
			for ix := 0; ix < mx; ix++ {
				for iy := 0; iy < my2; iy++ {
					blk[(iz*mx+ix)*my2+iy] = src[(iy*mx+ix)*nz+d*mz+iz]
				}
			}
		}
	}
}

// UnpackColCB reverses PackColBC: received blocks → layout B.
func UnpackColCB[T any](dst, src []T, ny, mx, mz, pc int) {
	my2 := ny / pc
	checkLen("UnpackColCB", len(dst), len(src), mz*mx*ny)
	bs := mz * mx * my2
	for s := 0; s < pc; s++ {
		blk := src[s*bs : (s+1)*bs]
		for iz := 0; iz < mz; iz++ {
			for ix := 0; ix < mx; ix++ {
				dstOff := (iz*mx+ix)*ny + s*my2
				srcOff := (iz*mx + ix) * my2
				copy(dst[dstOff:dstOff+my2], blk[srcOff:srcOff+my2])
			}
		}
	}
}

func checkLen(op string, dst, src, want int) {
	if dst < want || src < want {
		panic(fmt.Sprintf("transpose: %s needs %d elements, got dst %d src %d", op, want, dst, src))
	}
}
