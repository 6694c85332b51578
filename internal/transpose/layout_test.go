package transpose

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
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

// The layout-based kernels must match a pack→unpack round trip: the
// physical slab recovered from PackYZRange+UnpackYZRange must invert
// through PackZYRange+UnpackZYRange.
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

// FuzzSlabLayout drives the slab kernels over fuzzed geometry, band,
// gather tile, source plane range and wire type, in both directions:
// the staged path (Pack*Range into compact blocks, the staged stage's
// block copy, Unpack*Range), the blocked gather and the plain gather
// must each land, bit for bit, exactly what the band and the range say
// — in-band elements of the range's planes from their global source
// position, +0 over the KB-prefix of YZ's out-of-band z rows of the
// range — while every other destination element, the planes outside
// the range included, keeps its NaN sentinel and the out-of-band
// source entries, poisoned with a second NaN, are never read.
func FuzzSlabLayout(f *testing.F) {
	f.Fuzz(func(t *testing.T, pSel, mySel, mzSel, nxhSel, kmaxSel, kbSel, tile, loSel, hiSel uint8, single bool) {
		p := 1 + int(pSel)%4
		l := NewSlabLayout(1+int(nxhSel)%6, (1+int(mySel)%3)*p, 1+int(mzSel)%3, p)
		band := grid.NewBand(l.Nz, int(kmaxSel)%(l.Nz/2+2)-1)
		l.SetBand(int(kbSel)%(l.Nxh+1), band)
		lo := int(loSel) % (l.Hi + 1)
		l = l.Range(lo, l.Hi-int(hiSel)%(l.Hi-lo+1))
		if single {
			checkSlabLayout[complex64](t, &l, int(tile)%(l.Mz+2))
		} else {
			checkSlabLayout[complex128](t, &l, int(tile)%(l.Mz+2))
		}
	})
}

// checkSlabLayout is FuzzSlabLayout's check at element type T.
func checkSlabLayout[T complex64 | complex128](t *testing.T, l *SlabLayout, tile int) {
	nan, poison := T(complex(math.NaN(), math.NaN())), T(complex(math.NaN(), 1))
	same := func(a, b T) bool {
		x, y := complex128(a), complex128(b)
		return math.Float64bits(real(x)) == math.Float64bits(real(y)) &&
			math.Float64bits(imag(x)) == math.Float64bits(imag(y))
	}
	// Index maps of the two sides: C = [Mz][Ny][Nxh] on rank r holds
	// global z r·Mz+iz; B = [My][Nz][Nxh] on rank r holds global y r·My+iy.
	atC := func(r, i int) (gz, gy, x int) {
		return r*l.Mz + i/l.Nxh/l.Ny, i / l.Nxh % l.Ny, i % l.Nxh
	}
	atB := func(r, i int) (gz, gy, x int) {
		return i / l.Nxh % l.Nz, r*l.My + i/l.Nxh/l.Nz, i % l.Nxh
	}
	for _, yz := range []bool{true, false} {
		srcAt, dstAt := atC, atB
		// moved reports whether the range carries global (gz, gy): its
		// source plane is a z-plane of C (YZ) or a y-plane of B (ZY).
		plane := func(gz, gy int) int { return gz % l.Mz }
		if !yz {
			srcAt, dstAt = atB, atC
			plane = func(gz, gy int) int { return gy % l.My }
		}
		moved := func(gz, gy int) bool {
			ip := plane(gz, gy)
			return ip >= l.Lo && ip < l.Lo+l.Planes(yz)
		}
		// Every rank's source: unique in-band values, NaN elsewhere;
		// global[(gz, gy, x)] names the value wherever it lives. pub[r]
		// is what rank r publishes: its slab from plane Lo.
		global := map[[3]int]T{}
		srcs, pub := make([][]T, l.P), make([][]T, l.P)
		for r := range srcs {
			srcs[r] = make([]T, l.Total)
			for i := range srcs[r] {
				srcs[r][i] = poison
				if gz, gy, x := srcAt(r, i); l.Band.Has(gz) && x < l.KB {
					srcs[r][i] = T(complex(float64(r*l.Total+i)+0.5, -float64(i)))
					global[[3]int{gz, gy, x}] = srcs[r][i]
				}
			}
			pub[r] = Source(l, srcs[r], yz)
		}
		poisoned := func() []T {
			buf := make([]T, l.Total)
			for i := range buf {
				buf[i] = nan
			}
			return buf
		}
		packs := make([][]T, l.P)
		for r := range packs {
			packs[r] = poisoned()
			if yz {
				PackYZRange(l, packs[r], pub[r], r, 0, l.Planes(yz))
			} else {
				PackZYRange(l, packs[r], pub[r], 0, l.Planes(yz))
			}
		}
		bl := l.BlockLen(yz)
		for me := 0; me < l.P; me++ {
			staged, blocked, plain, recv := poisoned(), poisoned(), poisoned(), make([]T, l.Total)
			for s, pack := range packs {
				copy(recv[s*bl:(s+1)*bl], pack[me*bl:(me+1)*bl])
			}
			if yz {
				UnpackYZRange(l, staged, recv, 0, l.My)
				GatherYZRangeBlocked(l, blocked, pub, me, 0, l.My, tile)
				GatherYZRange(l, plain, pub, me, 0, l.My)
			} else {
				UnpackZYRange(l, staged, recv, me, 0, l.Mz)
				GatherZYRangeBlocked(l, blocked, pub, me, 0, l.Mz, tile)
				GatherZYRange(l, plain, pub, me, 0, l.Mz)
			}
			for i := range staged {
				gz, gy, x := dstAt(me, i)
				want := nan
				switch {
				case !moved(gz, gy):
				case x < l.KB && l.Band.Has(gz):
					want = global[[3]int{gz, gy, x}]
				case x < l.KB && yz:
					want = 0
				}
				for path, got := range map[string]T{"staged": staged[i], "blocked": blocked[i], "plain": plain[i]} {
					if !same(got, want) {
						t.Fatalf("%+v tile %d yz=%v rank %d %s: dst[%d] (z %d, y %d, x %d) = %v, want %v",
							*l, tile, yz, me, path, i, gz, gy, x, got, want)
					}
				}
			}
		}
		for r := range srcs {
			for i, v := range srcs[r] {
				if gz, _, x := srcAt(r, i); !(l.Band.Has(gz) && x < l.KB) && !same(v, poison) {
					t.Fatalf("yz=%v rank %d: source sentinel [%d] overwritten with %v", yz, r, i, v)
				}
			}
		}
	}
}
