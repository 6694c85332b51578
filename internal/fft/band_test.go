package fft

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// realLayout is one (howmany, rstride, rdist, cstride, cdist) layout of
// a real batch over length n.
type realLayout struct{ howmany, rstride, rdist, cstride, cdist int }

// bandLayouts are the layouts the banded real batch is checked on:
// contiguous lines, lines interleaved one stride apart, and lines at
// odd strides with gaps between them, so a store past the band or into
// a gap lands on an element the test watches.
func bandLayouts(n int) []realLayout {
	h := n/2 + 1
	return []realLayout{
		{3, 1, n, 1, h},
		{4, 4, 1, 4, 1},
		{2, 3, 3*n + 1, 2, 2*h + 3},
	}
}

// lineSpan is the element count a layout's lines reach on one side.
func lineSpan(howmany, n, stride, dist int) int { return (howmany-1)*dist + (n-1)*stride + 1 }

// sentinel is the value the banded forward must leave alone: a NaN with
// a payload no arithmetic produces.
var sentinel = complex(math.Float64frombits(0x7ff8_0000_dead_beef), -3.5)

// The banded real batch against the full one, bit for bit, on every even
// n of the engines' grids and every band kb ∈ [1, n/2+1]: forward, the
// bins below kb are the full plan's and every other element of dst —
// the bins past the band and the gaps between lines — still holds the
// sentinel; inverse, a spectrum holding NaN past the band gives the full
// plan's output for that spectrum with +0 there, so no bin past the band
// is read. Odd n ignores the band: every bin is stored and read.
func TestBandRealBatchMatchesFull(t *testing.T) {
	for _, n := range []int{2, 4, 6, 8, 12, 16, 48, 64, 128, 3, 5, 9, 15} {
		h := n/2 + 1
		for li, lay := range bandLayouts(n) {
			rng := rand.New(rand.NewSource(int64(n*10 + li)))
			rlen, clen := lineSpan(lay.howmany, n, lay.rstride, lay.rdist), lineSpan(lay.howmany, h, lay.cstride, lay.cdist)
			src := make([]float64, rlen)
			for i := range src {
				src[i] = rng.NormFloat64()
			}
			full := NewRealBatch(n, lay.howmany, lay.rstride, lay.rdist, lay.cstride, lay.cdist)
			want := make([]complex128, clen)
			full.Forward(want, src)
			got, spec, masked := make([]complex128, clen), make([]complex128, clen), make([]complex128, clen)
			wantR, gotR := make([]float64, rlen), make([]float64, rlen)
			// bin maps an element of the complex side to its bin, -1 in a gap.
			bin := func(i int) int {
				for l := 0; l < lay.howmany; l++ {
					if d := i - l*lay.cdist; d >= 0 && d%lay.cstride == 0 && d/lay.cstride < h {
						return d / lay.cstride
					}
				}
				return -1
			}
			for kb := 1; kb <= h; kb++ {
				name := fmt.Sprintf("n=%d layout %d kb=%d", n, li, kb)
				keep := kb
				if n%2 == 1 {
					keep = h
				}
				b := NewBandRealBatch(n, kb, lay.howmany, lay.rstride, lay.rdist, lay.cstride, lay.cdist)
				for i := range got {
					got[i] = sentinel
				}
				b.Forward(got, src)
				for i, v := range got {
					w := sentinel
					if k := bin(i); k >= 0 && k < keep {
						w = want[i]
					}
					if !bitsEqual(v, w) {
						t.Fatalf("%s: forward element %d (bin %d) = %v, want %v", name, i, bin(i), v, w)
					}
				}
				for i, v := range want {
					spec[i], masked[i] = v, v
					if k := bin(i); k >= keep {
						spec[i], masked[i] = complex(math.NaN(), math.NaN()), 0
					}
				}
				full.Inverse(wantR, masked)
				b.Inverse(gotR, spec)
				for i, v := range gotR {
					if math.Float64bits(v) != math.Float64bits(wantR[i]) {
						t.Fatalf("%s: inverse element %d = %v, full inverse of the masked spectrum %v", name, i, v, wantR[i])
					}
				}
				b.Release()
			}
			full.Release()
		}
	}
}

// A band outside [1, n/2+1] is refused at construction.
func TestBandRealBatchRejectsBadBand(t *testing.T) {
	for _, kb := range []int{0, -1, 10} {
		mustPanicFFT(t, fmt.Sprintf("kb=%d", kb), func() { NewBandRealBatch(16, kb, 1, 1, 16, 1, 9) })
	}
}
