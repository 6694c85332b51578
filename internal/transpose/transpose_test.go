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

// slabExchange runs the staged slab transpose of l across its P local
// ranks: every rank packs its slab (Fourier side for yz, physical side
// otherwise), the blocks are exchanged, every rank unpacks.
func slabExchange(l *SlabLayout, srcs [][]complex128, yz bool) [][]complex128 {
	send := make([][]complex128, l.P)
	for r, src := range srcs {
		send[r] = make([]complex128, l.Total)
		if yz {
			PackYZRange(l, send[r], src, r, 0, l.Mz)
		} else {
			PackZYRange(l, send[r], src, 0, l.My)
		}
	}
	recv := exchange(send, l.P, l.Block)
	out := make([][]complex128, l.P)
	for r := range out {
		out[r] = make([]complex128, l.Total)
		if yz {
			UnpackYZRange(l, out[r], recv[r], 0, l.My)
		} else {
			UnpackZYRange(l, out[r], recv[r], r, 0, l.Mz)
		}
	}
	return out
}

func TestSlabTransposeRoundTrip(t *testing.T) {
	l := NewSlabLayout(5, 12, 2, 3)
	orig := make([][]complex128, l.P)
	for r := range orig {
		orig[r] = make([]complex128, l.Total)
		for i := range orig[r] {
			orig[r][i] = complex(float64(r*100000+i), float64(i))
		}
	}
	// Forward y→z, then back z→y: every rank's slab is restored.
	back := slabExchange(&l, slabExchange(&l, orig, true), false)
	for r := range back {
		for i := range back[r] {
			if back[r][i] != orig[r][i] {
				t.Fatalf("rank %d element %d not restored: %v vs %v", r, i, back[r][i], orig[r][i])
			}
		}
	}
}

// rowGroup is the Pr ranks of one row group (sharing zG) of an n³
// pencil grid: its row exchange is the slab transpose with Nxh := Wc
// between the z-complete B = [My][Nz][Wc] and the y-complete
// C = [Mz2][Ny][Wc] (see pencil.go).
func rowGroup(n, pr, pc, zG int) (*PencilLayout, SlabLayout) {
	l := NewPencilLayout(n, pr, pc, 0, zG)
	return l, NewSlabLayout(l.Wc, n, l.Mz2, pr)
}

func TestRowTransposeRoundTrip(t *testing.T) {
	_, rl := rowGroup(12, 3, 2, 1)
	orig := make([][]complex128, rl.P)
	for r := range orig {
		orig[r] = make([]complex128, rl.Total)
		for i := range orig[r] {
			orig[r][i] = complex(float64(r*1000+i), 0)
		}
	}
	// B → C (the forward's row exchange), then C → B.
	back := slabExchange(&rl, slabExchange(&rl, orig, false), true)
	for r := range back {
		for i := range back[r] {
			if back[r][i] != orig[r][i] {
				t.Fatalf("rank %d element %d not restored", r, i)
			}
		}
	}
}

func TestRowTransposeGlobalPlacement(t *testing.T) {
	const n, pr, pc, zG = 12, 3, 2, 1
	l, rl := rowGroup(n, pr, pc, zG)
	// B on row rank yG: its y range, every z, this column group's x span.
	bs := make([][]complex128, pr)
	for yG := range bs {
		bs[yG] = make([]complex128, rl.Total)
		for iy := 0; iy < l.My; iy++ {
			for gz := 0; gz < n; gz++ {
				for ix := 0; ix < l.Wc; ix++ {
					bs[yG][(iy*n+gz)*l.Wc+ix] = encode(l.XLo+ix, yG*l.My+iy, gz)
				}
			}
		}
	}
	for yG, c := range slabExchange(&rl, bs, false) {
		for iz := 0; iz < l.Mz2; iz++ {
			for gy := 0; gy < n; gy++ {
				for ix := 0; ix < l.Wc; ix++ {
					want := encode(l.XLo+ix, gy, yG*l.Mz2+iz)
					if got := c[(iz*n+gy)*l.Wc+ix]; got != want {
						t.Fatalf("row rank %d x=%d y=%d z=%d: got %v want %v", yG, l.XLo+ix, gy, yG*l.Mz2+iz, got, want)
					}
				}
			}
		}
	}
}

// The column exchange's staged path — pack, all-to-all, unpack —
// forward then inverse restores X.
func TestColTransposeRoundTrip(t *testing.T) {
	const sentinel = complex(-1, -1)
	for yG := 0; yG < 2; yG++ {
		g := newColGroup(12, 2, 4, yG)
		my := g.lays[0].My
		b := g.run(true, "staged", g.x, 0, my, sentinel)
		for zG, got := range g.run(false, "staged", b, 0, my, sentinel) {
			l := g.lays[zG]
			checkPlanes(t, "col round trip", got, g.x[zG], l.Mz*l.Nxh, my, 0, my, sentinel)
		}
	}
}

// The column exchange's staged path places every element of X at its
// global coordinates in B.
func TestColTransposeGlobalPlacement(t *testing.T) {
	const sentinel = complex(-1, -1)
	g := newColGroup(12, 3, 2, 1)
	my := g.lays[0].My
	for zG, got := range g.run(true, "staged", g.x, 0, my, sentinel) {
		l := g.lays[zG]
		checkPlanes(t, "col placement", got, g.wantB(zG), l.N*l.Wc, my, 0, my, sentinel)
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
