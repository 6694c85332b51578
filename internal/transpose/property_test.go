package transpose

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: for random geometry, the slab pack→exchange→unpack chain
// followed by its reverse restores every rank's slab exactly.
func TestSlabTransposeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(5)
		my := 1 + rng.Intn(4)
		mz := 1 + rng.Intn(4)
		ny := my * p
		nz := mz * p
		nxh := 1 + rng.Intn(6)
		bs := mz * my * nxh

		orig := make([][]complex128, p)
		send := make([][]complex128, p)
		for r := 0; r < p; r++ {
			slab := make([]complex128, mz*ny*nxh)
			for i := range slab {
				slab[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			orig[r] = slab
			packed := make([]complex128, len(slab))
			PackYZ(packed, slab, nxh, ny, mz, p)
			send[r] = packed
		}
		recv := exchange(send, p, bs)
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
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: every element of the packed buffer appears exactly once
// (pack is a permutation, never duplicating or dropping data).
func TestPackIsPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(4)
		my := 1 + rng.Intn(3)
		mz := 1 + rng.Intn(3)
		ny := my * p
		nxh := 1 + rng.Intn(5)
		src := make([]complex128, mz*ny*nxh)
		for i := range src {
			src[i] = complex(float64(i)+1, 0) // unique nonzero values
		}
		dst := make([]complex128, len(src))
		PackYZ(dst, src, nxh, ny, mz, p)
		seen := map[complex128]int{}
		for _, v := range dst {
			seen[v]++
		}
		if len(seen) != len(src) {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the row/column pencil transposes are mutual inverses for
// random 2D-decomposition geometry — the complex reference's AB
// kernels, then the real engine's column kernels.
func TestPencilTransposeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pr := 1 + rng.Intn(4)
		mx := 1 + rng.Intn(3)
		my := mx // row transpose requires nx/pr == mx with nx = mx·pr and my = ny/pr
		nx := mx * pr
		ny := my * pr
		mz := 1 + rng.Intn(3)
		bs := mz * my * mx

		orig := make([][]complex128, pr)
		send := make([][]complex128, pr)
		for r := 0; r < pr; r++ {
			a := make([]complex128, mz*my*nx)
			for i := range a {
				a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			orig[r] = a
			packed := make([]complex128, len(a))
			PackRowAB(packed, a, nx, my, mz, pr)
			send[r] = packed
		}
		recv := exchange(send, pr, bs)
		back := make([][]complex128, pr)
		for r := 0; r < pr; r++ {
			b := make([]complex128, mz*mx*ny)
			UnpackRowAB(b, recv[r], ny, mx, mz, pr)
			packed := make([]complex128, len(b))
			PackRowBA(packed, b, ny, mx, mz, pr)
			back[r] = packed
		}
		recv2 := exchange(back, pr, bs)
		for r := 0; r < pr; r++ {
			a := make([]complex128, mz*my*nx)
			UnpackRowBA(a, recv2[r], nx, my, mz, pr)
			for i := range a {
				if a[i] != orig[r][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	// The column exchange of the real-transform engine: forward along
	// one path then inverse along another is the identity on X, for
	// random grids whose x split is mostly uneven (Nxh % Pc ≠ 0).
	col := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 * (1 + rng.Intn(10))
		pc := 1 + rng.Intn(n/2+1)
		for n%pc != 0 {
			pc--
		}
		g := newColGroup(n, 1, pc, 0)
		const sentinel = complex(-1, -1)
		b := g.run(true, colPaths[rng.Intn(len(colPaths))], g.x, 0, n, sentinel)
		back := g.run(false, colPaths[rng.Intn(len(colPaths))], b, 0, n, sentinel)
		for zG, l := range g.lays {
			for i := 0; i < l.XSpecLen(); i++ {
				if back[zG][i] != g.x[zG][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(col, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
