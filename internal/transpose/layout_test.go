package transpose

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// Partitioned Range calls must reproduce the full-range kernels exactly
// — the property the worker teams rely on when splitting one gather
// across workers.
func TestSlabRangePartitionEquivalence(t *testing.T) {
	const nxh, ny, mz, p = 5, 12, 6, 4
	l := NewSlabLayout(nxh, ny, mz, p)
	rng := rand.New(rand.NewSource(42))
	srcs := make([][]complex128, p)
	for r := range srcs {
		srcs[r] = make([]complex128, l.Total)
		for i := range srcs[r] {
			srcs[r][i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}

	type rangeFn func(l *SlabLayout, dst []complex128, srcs [][]complex128, me, lo, hi int)
	tiled := func(fn func(l *SlabLayout, dst []complex128, srcs [][]complex128, me, lo, hi, tile int)) rangeFn {
		return func(l *SlabLayout, dst []complex128, srcs [][]complex128, me, lo, hi int) {
			fn(l, dst, srcs, me, lo, hi, DefaultGatherTile)
		}
	}
	cases := []struct {
		name  string
		outer int // iteration count of the partitionable loop
		fn    rangeFn
	}{
		{"GatherYZ", l.My, GatherYZRange[complex128]},
		{"GatherYZBlocked", l.My, tiled(GatherYZRangeBlocked[complex128])},
		{"GatherZY", l.Mz, GatherZYRange[complex128]},
		{"GatherZYBlocked", l.Mz, tiled(GatherZYRangeBlocked[complex128])},
	}
	for _, c := range cases {
		for me := 0; me < p; me++ {
			want := make([]complex128, l.Total)
			c.fn(&l, want, srcs, me, 0, c.outer)
			for _, parts := range [][]int{{1, c.outer}, {2, 3, c.outer}, {c.outer - 1, c.outer}} {
				got := make([]complex128, l.Total)
				lo := 0
				for _, hi := range parts {
					if hi > c.outer {
						hi = c.outer
					}
					c.fn(&l, got, srcs, me, lo, hi)
					lo = hi
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s rank %d: partition %v differs at %d", c.name, me, parts, i)
					}
				}
			}
		}
	}
}

// The program's kernels invert each other: the physical slabs the
// blocked y→z gather lands, gathered back by the blocked z→y gather,
// are every rank's Fourier-side slab again.
func TestSlabLayoutRoundTrip(t *testing.T) {
	const nxh, ny, mz, p = 3, 8, 4, 2
	l := NewSlabLayout(nxh, ny, mz, p)
	srcs := buildFourierSlabs(&l)
	phys := make([][]complex128, p)
	for me := range phys {
		phys[me] = make([]complex128, l.Total)
		GatherYZRangeBlocked(&l, phys[me], srcs, me, 0, l.My, DefaultGatherTile)
	}
	for me, src := range srcs {
		back := make([]complex128, l.Total)
		GatherZYRangeBlocked(&l, back, phys, me, 0, l.Mz, DefaultGatherTile)
		for i := range back {
			if back[i] != src[i] {
				t.Fatalf("rank %d: round trip differs at %d: %v vs %v", me, i, back[i], src[i])
			}
		}
	}
}

// FuzzSlabLayout drives the slab kernels over fuzzed geometry, band,
// gather tile, source plane range and wire type, in both directions:
// the blocked gather and the plain gather must each land, bit for bit,
// exactly what the band and the range say
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
		for me := 0; me < l.P; me++ {
			blocked, plain := poisoned(), poisoned()
			if yz {
				GatherYZRangeBlocked(l, blocked, pub, me, 0, l.My, tile)
				GatherYZRange(l, plain, pub, me, 0, l.My)
			} else {
				GatherZYRangeBlocked(l, blocked, pub, me, 0, l.Mz, tile)
				GatherZYRange(l, plain, pub, me, 0, l.Mz)
			}
			for i := range plain {
				gz, gy, x := dstAt(me, i)
				want := nan
				switch {
				case !moved(gz, gy):
				case x < l.KB && l.Band.Has(gz):
					want = global[[3]int{gz, gy, x}]
				case x < l.KB && yz:
					want = 0
				}
				for path, got := range map[string]T{"blocked": blocked[i], "plain": plain[i]} {
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
