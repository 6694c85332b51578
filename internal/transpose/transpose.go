// Package transpose implements the pack and unpack kernels that
// surround every MPI all-to-all in the DNS: the slab y↔z transposes of
// the paper's 1D-decomposed GPU code (Fig 2/Fig 6), which are also the
// row exchange of a Pr×Pc pencil grid, and that grid's column
// exchange (pencil.go). Pack layouts are chosen so each destination
// receives one contiguous block, the property the paper exploits by
// fusing packing into a single strided device-to-host copy.
package transpose

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
