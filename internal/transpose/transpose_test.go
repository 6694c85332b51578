package transpose

import (
	"math"
	"testing"
)

// encode gives each global (x,y,z) site a unique value.
func encode(ix, iy, iz int) complex128 {
	return complex(float64(ix*1000000+iy*1000+iz), float64(ix+iy+iz))
}

// exchange emulates MPI_ALLTOALL across p local "ranks": send buffers
// are p equal blocks; recv[r] gathers block r from every rank.
func exchange(send [][]complex128, p, bs int) [][]complex128 {
	recv := make([][]complex128, p)
	for r := 0; r < p; r++ {
		recv[r] = make([]complex128, p*bs)
		for s := 0; s < p; s++ {
			copy(recv[r][s*bs:(s+1)*bs], send[s][r*bs:(r+1)*bs])
		}
	}
	return recv
}

func TestSlabTransposeGlobalPlacement(t *testing.T) {
	nxh, ny, nz, p := 3, 8, 4, 2
	mz, my := nz/p, ny/p
	bs := mz * my * nxh

	// Build each rank's Fourier-side slab [mz][ny][nxh].
	send := make([][]complex128, p)
	for r := 0; r < p; r++ {
		slab := make([]complex128, mz*ny*nxh)
		for iz := 0; iz < mz; iz++ {
			for iy := 0; iy < ny; iy++ {
				for ix := 0; ix < nxh; ix++ {
					slab[(iz*ny+iy)*nxh+ix] = encode(ix, iy, r*mz+iz)
				}
			}
		}
		packed := make([]complex128, len(slab))
		PackYZ(packed, slab, nxh, ny, mz, p)
		send[r] = packed
	}
	recv := exchange(send, p, bs)
	for r := 0; r < p; r++ {
		dst := make([]complex128, my*nz*nxh)
		UnpackYZ(dst, recv[r], nxh, nz, my, p)
		for iy := 0; iy < my; iy++ {
			for iz := 0; iz < nz; iz++ {
				for ix := 0; ix < nxh; ix++ {
					want := encode(ix, r*my+iy, iz)
					got := dst[(iy*nz+iz)*nxh+ix]
					if got != want {
						t.Fatalf("rank %d (x=%d y=%d z=%d): got %v want %v", r, ix, r*my+iy, iz, got, want)
					}
				}
			}
		}
	}
}

func TestSlabTransposeRoundTrip(t *testing.T) {
	nxh, ny, nz, p := 5, 12, 6, 3
	mz, my := nz/p, ny/p
	bs := mz * my * nxh

	orig := make([][]complex128, p)
	send := make([][]complex128, p)
	for r := 0; r < p; r++ {
		slab := make([]complex128, mz*ny*nxh)
		for i := range slab {
			slab[i] = complex(float64(r*100000+i), float64(i))
		}
		orig[r] = slab
		packed := make([]complex128, len(slab))
		PackYZ(packed, slab, nxh, ny, mz, p)
		send[r] = packed
	}
	recv := exchange(send, p, bs)

	// Reverse: pack z→y, exchange, unpack, compare to original.
	back := make([][]complex128, p)
	for r := 0; r < p; r++ {
		phys := make([]complex128, my*nz*nxh)
		UnpackYZ(phys, recv[r], nxh, nz, my, p)
		packed := make([]complex128, len(phys))
		PackZY(packed, phys, nxh, nz, my, p)
		back[r] = packed
	}
	recv2 := exchange(back, p, bs)
	for r := 0; r < p; r++ {
		dst := make([]complex128, mz*ny*nxh)
		UnpackZY(dst, recv2[r], nxh, ny, mz, p)
		for i := range dst {
			if dst[i] != orig[r][i] {
				t.Fatalf("rank %d element %d not restored: %v vs %v", r, i, dst[i], orig[r][i])
			}
		}
	}
}

func TestPencilBatchedPackEqualsFullPack(t *testing.T) {
	// Packing np pencils one at a time and concatenating the pieces per
	// destination must move exactly the same data as PackYZ of the full
	// slab (configuration B vs C of the paper carry identical bytes).
	nxh, ny, mz, p, np := 2, 12, 3, 3, 4
	my := ny / p
	src := make([]complex128, mz*ny*nxh)
	for i := range src {
		src[i] = complex(float64(i), -float64(i))
	}
	full := make([]complex128, len(src))
	PackYZ(full, src, nxh, ny, mz, p)

	nyp := ny / np
	// Gather per-destination data from the pencil packs.
	var perDst [][]complex128 = make([][]complex128, p)
	for ip := 0; ip < np; ip++ {
		buf := make([]complex128, mz*nyp*nxh)
		counts := PackYZPencil(buf, src, nxh, ny, mz, p, ip*nyp, (ip+1)*nyp)
		off := 0
		for d := 0; d < p; d++ {
			perDst[d] = append(perDst[d], buf[off:off+counts[d]]...)
			off += counts[d]
		}
	}
	// Config B (per-pencil messages) delivers the same data per
	// destination as config C (whole-slab messages), in a permuted
	// order the receiver's unpack accounts for. Compare as sets.
	bs := mz * my * nxh
	for d := 0; d < p; d++ {
		if len(perDst[d]) != bs {
			t.Fatalf("dest %d: pencil packs total %d want %d", d, len(perDst[d]), bs)
		}
		want := map[complex128]int{}
		got := map[complex128]int{}
		for i := 0; i < bs; i++ {
			want[full[d*bs+i]]++
			got[perDst[d][i]]++
		}
		for v, n := range want {
			if got[v] != n {
				t.Fatalf("dest %d: value %v count %d want %d", d, v, got[v], n)
			}
		}
	}
}

func TestPencilBatchedUnpackPlacement(t *testing.T) {
	nxh, ny, nz, p, np := 2, 8, 4, 2, 4
	my, mz := ny/p, nz/p
	nyp := ny / np
	// Build global field, pack pencil-by-pencil on each source rank,
	// exchange per pencil, unpack per pencil; verify final placement.
	for r := 0; r < p; r++ {
		dst := make([]complex128, my*nz*nxh)
		for ip := 0; ip < np; ip++ {
			yLo, yHi := ip*nyp, (ip+1)*nyp
			// Only sources contribute; each source packs its pencil.
			recvBuf := make([]complex128, 0, p*mz*nyp*nxh)
			for s := 0; s < p; s++ {
				slab := make([]complex128, mz*ny*nxh)
				for iz := 0; iz < mz; iz++ {
					for iy := 0; iy < ny; iy++ {
						for ix := 0; ix < nxh; ix++ {
							slab[(iz*ny+iy)*nxh+ix] = encode(ix, iy, s*mz+iz)
						}
					}
				}
				buf := make([]complex128, mz*nyp*nxh)
				counts := PackYZPencil(buf, slab, nxh, ny, mz, p, yLo, yHi)
				// Extract the piece destined for rank r.
				off := 0
				for d := 0; d < p; d++ {
					if d == r {
						recvBuf = append(recvBuf, buf[off:off+counts[d]]...)
					}
					off += counts[d]
				}
			}
			UnpackYZPencil(dst, recvBuf, nxh, nz, my, p, r*my, yLo, yHi)
		}
		for iy := 0; iy < my; iy++ {
			for iz := 0; iz < nz; iz++ {
				for ix := 0; ix < nxh; ix++ {
					want := encode(ix, r*my+iy, iz)
					if got := dst[(iy*nz+iz)*nxh+ix]; got != want {
						t.Fatalf("rank %d y=%d z=%d x=%d: got %v want %v", r, r*my+iy, iz, ix, got, want)
					}
				}
			}
		}
	}
}

func TestRowTransposeRoundTrip(t *testing.T) {
	nx, ny, mz, pr := 8, 6, 2, 2
	my, mx := ny/pr, nx/pr
	bs := mz * my * mx

	orig := make([][]complex128, pr)
	send := make([][]complex128, pr)
	for r := 0; r < pr; r++ {
		a := make([]complex128, mz*my*nx)
		for i := range a {
			a[i] = complex(float64(r*1000+i), 0)
		}
		orig[r] = a
		packed := make([]complex128, len(a))
		PackRowAB(packed, a, nx, my, mz, pr)
		send[r] = packed
	}
	recv := exchange(send, pr, bs)
	backSend := make([][]complex128, pr)
	for r := 0; r < pr; r++ {
		b := make([]complex128, mz*mx*ny)
		UnpackRowAB(b, recv[r], ny, mx, mz, pr)
		packed := make([]complex128, len(b))
		PackRowBA(packed, b, ny, mx, mz, pr)
		backSend[r] = packed
	}
	recv2 := exchange(backSend, pr, bs)
	for r := 0; r < pr; r++ {
		a := make([]complex128, mz*my*nx)
		UnpackRowBA(a, recv2[r], nx, my, mz, pr)
		for i := range a {
			if a[i] != orig[r][i] {
				t.Fatalf("rank %d element %d not restored", r, i)
			}
		}
	}
}

func TestRowTransposeGlobalPlacement(t *testing.T) {
	nx, ny, mz, pr := 6, 4, 1, 2
	my, mx := ny/pr, nx/pr
	bs := mz * my * mx
	send := make([][]complex128, pr)
	for r := 0; r < pr; r++ {
		a := make([]complex128, mz*my*nx)
		for iz := 0; iz < mz; iz++ {
			for iy := 0; iy < my; iy++ {
				for ix := 0; ix < nx; ix++ {
					a[(iz*my+iy)*nx+ix] = encode(ix, r*my+iy, iz)
				}
			}
		}
		packed := make([]complex128, len(a))
		PackRowAB(packed, a, nx, my, mz, pr)
		send[r] = packed
	}
	recv := exchange(send, pr, bs)
	for r := 0; r < pr; r++ {
		b := make([]complex128, mz*mx*ny)
		UnpackRowAB(b, recv[r], ny, mx, mz, pr)
		for iz := 0; iz < mz; iz++ {
			for ix := 0; ix < mx; ix++ {
				for iy := 0; iy < ny; iy++ {
					want := encode(r*mx+ix, iy, iz)
					if got := b[(iz*mx+ix)*ny+iy]; got != want {
						t.Fatalf("rank %d x=%d y=%d: got %v want %v", r, r*mx+ix, iy, got, want)
					}
				}
			}
		}
	}
}

func TestColTransposeRoundTrip(t *testing.T) {
	ny, nz, mx, pc := 6, 4, 3, 2
	my2, mz := ny/pc, nz/pc
	bs := mz * mx * my2

	orig := make([][]complex128, pc)
	send := make([][]complex128, pc)
	for r := 0; r < pc; r++ {
		b := make([]complex128, mz*mx*ny)
		for i := range b {
			b[i] = complex(float64(r*777+i), float64(i%7))
		}
		orig[r] = b
		packed := make([]complex128, len(b))
		PackColBC(packed, b, ny, mx, mz, pc)
		send[r] = packed
	}
	recv := exchange(send, pc, bs)
	backSend := make([][]complex128, pc)
	for r := 0; r < pc; r++ {
		cArr := make([]complex128, my2*mx*nz)
		UnpackColBC(cArr, recv[r], nz, mx, my2, pc)
		packed := make([]complex128, len(cArr))
		PackColCB(packed, cArr, nz, mx, my2, pc)
		backSend[r] = packed
	}
	recv2 := exchange(backSend, pc, bs)
	for r := 0; r < pc; r++ {
		b := make([]complex128, mz*mx*ny)
		UnpackColCB(b, recv2[r], ny, mx, mz, pc)
		for i := range b {
			if b[i] != orig[r][i] {
				t.Fatalf("rank %d element %d not restored", r, i)
			}
		}
	}
}

func TestColTransposeGlobalPlacement(t *testing.T) {
	ny, nz, mx, pc := 4, 6, 2, 2
	my2, mz := ny/pc, nz/pc
	bs := mz * mx * my2
	send := make([][]complex128, pc)
	for r := 0; r < pc; r++ {
		// Layout B on rank r: [mz][mx][ny], z range [r·mz,(r+1)·mz).
		b := make([]complex128, mz*mx*ny)
		for iz := 0; iz < mz; iz++ {
			for ix := 0; ix < mx; ix++ {
				for iy := 0; iy < ny; iy++ {
					b[(iz*mx+ix)*ny+iy] = encode(ix, iy, r*mz+iz)
				}
			}
		}
		packed := make([]complex128, len(b))
		PackColBC(packed, b, ny, mx, mz, pc)
		send[r] = packed
	}
	recv := exchange(send, pc, bs)
	for r := 0; r < pc; r++ {
		cArr := make([]complex128, my2*mx*nz)
		UnpackColBC(cArr, recv[r], nz, mx, my2, pc)
		for iy := 0; iy < my2; iy++ {
			for ix := 0; ix < mx; ix++ {
				for iz := 0; iz < nz; iz++ {
					want := encode(ix, r*my2+iy, iz)
					if got := cArr[(iy*mx+ix)*nz+iz]; got != want {
						t.Fatalf("rank %d y=%d z=%d: got %v want %v", r, r*my2+iy, iz, got, want)
					}
				}
			}
		}
	}
}

func TestCopyStrided(t *testing.T) {
	src := make([]float64, 20)
	for i := range src {
		src[i] = float64(i)
	}
	dst := make([]float64, 20)
	// Copy 3 rows of 4 elements: src stride 5, dst stride 6.
	CopyStrided(dst, 6, src, 5, 4, 3)
	for r := 0; r < 3; r++ {
		for j := 0; j < 4; j++ {
			if dst[r*6+j] != float64(r*5+j) {
				t.Errorf("row %d col %d: got %g", r, j, dst[r*6+j])
			}
		}
	}
}

func TestPackPanicsOnShortBuffer(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	PackYZ(make([]complex128, 3), make([]complex128, 100), 2, 10, 5, 2)
}

func TestZeroOutOfBand(t *testing.T) {
	const n, stride, off, w = 8, 7, 2, 4
	for _, c := range []struct{ kb, gapLo, gapHi int }{
		{4, 5, 5}, // the full band: nothing cleared
		{4, 3, 6}, // rows only
		{1, 9, 9}, // column tails only
		{2, 3, 6},
		{0, 0, 0}, // an out-of-band plane: the whole span
	} {
		plane := make([]complex128, n*stride)
		for i := range plane {
			plane[i] = complex(float64(i+1), -1)
		}
		ZeroOutOfBand(plane[off:], n, stride, w, c.kb, c.gapLo, c.gapHi)
		for i, v := range plane {
			r, x := i/stride, i%stride-off
			cleared := x >= 0 && x < w && (x >= c.kb || (r >= c.gapLo && r < c.gapHi))
			if cleared && (math.Float64bits(real(v)) != 0 || math.Float64bits(imag(v)) != 0) {
				t.Errorf("%+v: row %d column %d not +0: %v", c, r, x, v)
			}
			if !cleared && v != complex(float64(i+1), -1) {
				t.Errorf("%+v: row %d column %d overwritten: %v", c, r, x, v)
			}
		}
	}
}
