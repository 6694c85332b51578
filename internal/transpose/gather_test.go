package transpose

import (
	"fmt"
	"testing"
)

// buildSlabs fabricates every rank's Fourier-side slab with globally
// unique element values, so a misrouted gather is caught by value.
func buildFourierSlabs(l *SlabLayout) [][]complex128 {
	srcs := make([][]complex128, l.P)
	for s := range srcs {
		srcs[s] = make([]complex128, l.Total)
		for i := range srcs[s] {
			srcs[s][i] = complex(float64(s*l.Total+i), float64(s))
		}
	}
	return srcs
}

// stagedTriple is rank me's destination slab of the whole-slab,
// full-band transpose of srcs, computed the way an MPI code moves it
// and with none of the gather kernels: every rank packs its slab into P
// contiguous blocks (block d holds, row by row, the x rows rank d
// receives), the all-to-all hands rank me block me of every rank, and
// me unpacks block s into the rows that came from rank s. Under yz the
// rows of block d are (iz, d·My+iy) of the Fourier side, landing at
// (iy, s·Mz+iz) of the physical side; under zy they are (iy, d·Mz+iz)
// of the physical side, landing at (iz, s·My+iy) of the Fourier side.
func stagedTriple(l *SlabLayout, srcs [][]complex128, me int, yz bool) []complex128 {
	outer, inner, srcRows, dstRows := l.Mz, l.My, l.Ny, l.Nz // yz: blocks [Mz][My]
	if !yz {
		outer, inner, srcRows, dstRows = l.My, l.Mz, l.Nz, l.Ny
	}
	row := func(buf []complex128, r int) []complex128 { return buf[r*l.Nxh : (r+1)*l.Nxh] }
	blocks := make([][]complex128, l.P) // block me of every rank s
	for s, src := range srcs {
		blocks[s] = make([]complex128, outer*inner*l.Nxh)
		for o := 0; o < outer; o++ {
			for i := 0; i < inner; i++ {
				copy(row(blocks[s], o*inner+i), row(src, o*srcRows+me*inner+i))
			}
		}
	}
	dst := make([]complex128, l.Total)
	for s, blk := range blocks {
		for o := 0; o < outer; o++ {
			for i := 0; i < inner; i++ {
				copy(row(dst, i*dstRows+s*outer+o), row(blk, o*inner+i))
			}
		}
	}
	return dst
}

// The fused gather must be element-for-element identical to the staged
// pack → all-to-all → unpack triple, for every rank of every tested
// world size — including P values that do not divide the row count
// evenly across workers — and so must the per-peer gathers in
// pairwise-exchange order over a ragged partition.
func TestGatherYZMatchesStagedTriple(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		nxh, ny, mz := 5, 7*p, 3 // ny divisible by p by construction
		l := NewSlabLayout(nxh, ny, mz, p)
		srcs := buildFourierSlabs(&l)
		for me := 0; me < p; me++ {
			want := stagedTriple(&l, srcs, me, true)

			got := make([]complex128, l.Total)
			GatherYZRange(&l, got, srcs, me, 0, l.My)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("P=%d me=%d: GatherYZ differs at %d: %v vs %v", p, me, i, got[i], want[i])
				}
			}

			// Chunked: per-peer gathers in pairwise-exchange order over a
			// ragged row partition must compose to the same result.
			chunked := make([]complex128, l.Total)
			for r := 0; r < p; r++ {
				s := (me + r) % p
				for _, cut := range [][2]int{{0, 1}, {1, l.My}} {
					if cut[0] < cut[1] {
						GatherYZPeer(&l, chunked, srcs[s], me, s, cut[0], cut[1])
					}
				}
			}
			for i := range want {
				if chunked[i] != want[i] {
					t.Fatalf("P=%d me=%d: chunked GatherYZPeer differs at %d", p, me, i)
				}
			}
		}
	}
}

func TestGatherZYMatchesStagedTriple(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		nxh, ny, mz := 4, 2*p, 3
		l := NewSlabLayout(nxh, ny, mz, p)
		// Physical-side slabs: [My][Nz][Nxh], same Total.
		srcs := make([][]complex128, p)
		for s := range srcs {
			srcs[s] = make([]complex128, l.Total)
			for i := range srcs[s] {
				srcs[s][i] = complex(float64(s*l.Total+i), -float64(s))
			}
		}
		for me := 0; me < p; me++ {
			want := stagedTriple(&l, srcs, me, false)

			got := make([]complex128, l.Total)
			GatherZYRange(&l, got, srcs, me, 0, l.Mz)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("P=%d me=%d: GatherZY differs at %d: %v vs %v", p, me, i, got[i], want[i])
				}
			}

			chunked := make([]complex128, l.Total)
			for r := 0; r < p; r++ {
				s := (me + r) % p
				GatherZYPeer(&l, chunked, srcs[s], me, s, 0, l.Mz)
			}
			for i := range want {
				if chunked[i] != want[i] {
					t.Fatalf("P=%d me=%d: chunked GatherZYPeer differs at %d", p, me, i)
				}
			}
		}
	}
}

// CopyStrided's contiguous fast path must be exact for every
// stride/rowLen relationship the kernels use.
func TestCopyStridedFastPath(t *testing.T) {
	for _, tc := range []struct {
		dstStride, srcStride, rowLen, nrows int
	}{
		{8, 8, 8, 16},  // fully contiguous: single-copy fast path
		{8, 16, 8, 8},  // contiguous dst, strided src
		{16, 8, 8, 8},  // strided dst, contiguous src
		{10, 12, 7, 9}, // both strided
		{8, 8, 8, 0},   // empty
		{8, 8, 0, 4},   // zero-width rows
	} {
		srcLen := tc.srcStride*(tc.nrows-1) + tc.rowLen
		dstLen := tc.dstStride*(tc.nrows-1) + tc.rowLen
		if tc.nrows == 0 {
			srcLen, dstLen = 0, 0
		}
		src := make([]float64, srcLen)
		for i := range src {
			src[i] = float64(i + 1)
		}
		got := make([]float64, dstLen)
		want := make([]float64, dstLen)
		CopyStrided(got, tc.dstStride, src, tc.srcStride, tc.rowLen, tc.nrows)
		for r := 0; r < tc.nrows; r++ { // reference: naive row loop
			copy(want[r*tc.dstStride:r*tc.dstStride+tc.rowLen], src[r*tc.srcStride:r*tc.srcStride+tc.rowLen])
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v: differs at %d: %v vs %v", tc, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkCopyStrided pins the satellite fix: the fully-contiguous
// shape must collapse to one copy (rows/contig ratio is the win), and
// the strided shape must not regress from hoisting the bounds.
func BenchmarkCopyStrided(b *testing.B) {
	const rowLen, nrows = 128, 256
	src := make([]complex128, rowLen*nrows)
	dst := make([]complex128, 2*rowLen*nrows)
	for _, bc := range []struct {
		name                 string
		dstStride, srcStride int
	}{
		{"contig", rowLen, rowLen},
		{"rows", 2 * rowLen, rowLen},
	} {
		b.Run(fmt.Sprintf("%s_%dx%d", bc.name, nrows, rowLen), func(b *testing.B) {
			b.SetBytes(int64(16 * rowLen * nrows))
			for i := 0; i < b.N; i++ {
				CopyStrided(dst, bc.dstStride, src, bc.srcStride, rowLen, nrows)
			}
		})
	}
}

// GatherZYRange gathers z-planes [izLo,izHi) of the Fourier-side slab
// dst=[Mz][Ny][Nxh] directly from every peer's physical-side slab
// srcs[s]=[My][Nz][Nxh]. Distinct iz ranges write disjoint dst
// elements.
func GatherZYRange[T any](l *SlabLayout, dst []T, srcs [][]T, me, izLo, izHi int) {
	for s := 0; s < l.P; s++ {
		GatherZYPeer(l, dst, srcs[s], me, s, izLo, izHi)
	}
}

// GatherZYPeer gathers peer s's contribution to z-planes [izLo,izHi)
// of the Fourier-side slab: src is rank s's physical-side slab, whose
// y-planes of the range land in dst's y rows s·My+Lo… of the in-band
// planes, KB elements each (see SlabLayout).
func GatherZYPeer[T any](l *SlabLayout, dst, src []T, me, s, izLo, izHi int) {
	nxh, ny, nz, kb, n := l.Nxh, l.Ny, l.Nz, l.KB, l.Planes(false)
	zBase, yBase := me*l.Mz, s*l.My+l.Lo
	for iy := 0; iy < n; iy++ {
		srcOff := (iy*nz + zBase + izLo) * nxh
		dstOff := (izLo*ny + yBase + iy) * nxh
		for iz := izLo; iz < izHi; iz++ {
			if l.Band.Has(zBase + iz) {
				copy(dst[dstOff:dstOff+kb], src[srcOff:srcOff+kb])
			}
			srcOff += nxh
			dstOff += ny * nxh
		}
	}
}
