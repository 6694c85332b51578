package transpose

import (
	"math/rand"
	"testing"
)

// Partitioned Range calls must reproduce the full-range kernels exactly
// — the property the worker teams rely on when splitting one pack or
// unpack across workers.
func TestSlabRangePartitionEquivalence(t *testing.T) {
	const nxh, ny, mz, p = 5, 12, 6, 4
	l := NewSlabLayout(nxh, ny, mz, p)
	rng := rand.New(rand.NewSource(42))
	src := make([]complex128, l.Total)
	for i := range src {
		src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}

	type rangeFn func(l *SlabLayout, dst, src []complex128, lo, hi int)
	onRank0 := func(fn func(l *SlabLayout, dst, src []complex128, me, lo, hi int)) rangeFn {
		return func(l *SlabLayout, dst, src []complex128, lo, hi int) { fn(l, dst, src, 0, lo, hi) }
	}
	cases := []struct {
		name  string
		outer int // iteration count of the partitionable loop
		fn    rangeFn
	}{
		{"PackYZ", l.Mz, onRank0(PackYZRange[complex128])},
		{"UnpackYZ", l.My, UnpackYZRange[complex128]},
		{"PackZY", l.My, PackZYRange[complex128]},
		{"UnpackZY", l.Mz, onRank0(UnpackZYRange[complex128])},
	}
	for _, c := range cases {
		want := make([]complex128, l.Total)
		c.fn(&l, want, src, 0, c.outer)
		for _, parts := range [][]int{{1, c.outer}, {2, 3, c.outer}, {c.outer - 1, c.outer}} {
			got := make([]complex128, l.Total)
			lo := 0
			for _, hi := range parts {
				if hi > c.outer {
					hi = c.outer
				}
				c.fn(&l, got, src, lo, hi)
				lo = hi
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: partition %v differs at %d", c.name, parts, i)
				}
			}
		}
	}
}

// The layout-based wrappers must match a pack→unpack round trip: the
// physical slab recovered from PackYZ+UnpackYZ must invert through
// PackZY+UnpackZY.
func TestSlabLayoutRoundTrip(t *testing.T) {
	const nxh, ny, mz, p = 3, 8, 4, 2
	l := NewSlabLayout(nxh, ny, mz, p)
	src := make([]complex128, l.Total)
	for i := range src {
		src[i] = complex(float64(i), -float64(i))
	}
	packed := make([]complex128, l.Total)
	phys := make([]complex128, l.Total)
	packed2 := make([]complex128, l.Total)
	back := make([]complex128, l.Total)
	PackYZRange(&l, packed, src, 0, 0, l.Mz)
	// In-process "exchange": with one rank per block the alltoall is the
	// identity on block order for self-consistency of the layout.
	UnpackYZRange(&l, phys, packed, 0, l.My)
	PackZYRange(&l, packed2, phys, 0, l.My)
	UnpackZYRange(&l, back, packed2, 0, 0, l.Mz)
	for i := range back {
		if back[i] != src[i] {
			t.Fatalf("round trip differs at %d: %v vs %v", i, back[i], src[i])
		}
	}
}

func TestPackYZPencilIntoMatchesAlloc(t *testing.T) {
	const nxh, ny, mz, p = 4, 12, 3, 3
	src := make([]float64, mz*ny*nxh)
	for i := range src {
		src[i] = float64(i * 7 % 13)
	}
	for _, yr := range [][2]int{{0, 12}, {2, 9}, {4, 4}, {11, 12}} {
		d1 := make([]float64, len(src))
		d2 := make([]float64, len(src))
		counts1 := PackYZPencil(d1, src, nxh, ny, mz, p, yr[0], yr[1])
		counts2 := make([]int, p)
		PackYZPencilInto(counts2, d2, src, nxh, ny, mz, p, yr[0], yr[1])
		for d := 0; d < p; d++ {
			if counts1[d] != counts2[d] {
				t.Fatalf("y=%v counts differ at %d: %d vs %d", yr, d, counts1[d], counts2[d])
			}
		}
		for i := range d1 {
			if d1[i] != d2[i] {
				t.Fatalf("y=%v data differs at %d", yr, i)
			}
		}
	}
}
