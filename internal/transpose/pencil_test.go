package transpose

import (
	"fmt"
	"testing"
)

// global assigns every (ix, iy, iz) coordinate a unique value so any
// misrouted element is caught exactly.
func pencilVal(ix, iy, iz int) complex128 {
	return complex(float64(ix*1_000_000+iy*1_000+iz), float64(ix-iy+iz))
}

func TestSplitSpan(t *testing.T) {
	spans := SplitSpan(7, 4)
	want := []Span{{0, 2}, {2, 4}, {4, 6}, {6, 7}}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("SplitSpan(7,4)[%d] = %+v, want %+v", i, spans[i], want[i])
		}
	}
	total := 0
	for _, s := range SplitSpan(9, 2) {
		total += s.Width()
	}
	if total != 9 {
		t.Fatalf("SplitSpan widths sum to %d, want 9", total)
	}
}

// colGroup is one column group (the Pc ranks sharing a y range) with
// its x-complete layouts filled from global coordinates; the padding
// tail of each X holds poison, which no kernel may read.
type colGroup struct {
	lays []*PencilLayout
	x    [][]complex128
}

var poison = complex(-7, -7)

func newColGroup(n, pr, pc, yG int) colGroup {
	g := colGroup{lays: make([]*PencilLayout, pc), x: make([][]complex128, pc)}
	for zG := range g.lays {
		l := NewPencilLayout(n, pr, pc, yG, zG)
		buf := make([]complex128, l.PadXLen)
		for i := range buf {
			buf[i] = poison
		}
		for iy := 0; iy < l.My; iy++ {
			for iz := 0; iz < l.Mz; iz++ {
				for ix := 0; ix < l.Nxh; ix++ {
					buf[(iy*l.Mz+iz)*l.Nxh+ix] = pencilVal(ix, yG*l.My+iy, zG*l.Mz+iz)
				}
			}
		}
		g.lays[zG], g.x[zG] = l, buf
	}
	return g
}

// wantB is the z-complete layout rank zG must hold after the forward
// column exchange: global placement, not a comparison between kernels.
func (g colGroup) wantB(zG int) []complex128 {
	l := g.lays[zG]
	b := make([]complex128, l.BLen())
	for iy := 0; iy < l.My; iy++ {
		for gz := 0; gz < l.N; gz++ {
			for ix := 0; ix < l.Wc; ix++ {
				b[(iy*l.N+gz)*l.Wc+ix] = pencilVal(l.XLo+ix, l.YRank*l.My+iy, gz)
			}
		}
	}
	return b
}

// The three ways a stage executes one direction of the column exchange.
var colPaths = []string{"staged", "fused", "rounds"}

// run executes y-planes [lo,hi) of the column exchange on every rank of
// the group along path — forward X → B, or inverse B → X — from srcs
// into sentinel-filled destinations of the exact published lengths.
func (g colGroup) run(fwd bool, path string, srcs [][]complex128, lo, hi int, sentinel complex128) [][]complex128 {
	pc := len(g.lays)
	dsts := make([][]complex128, pc)
	packs := make([][]complex128, pc)
	for zG, l := range g.lays {
		dsts[zG] = make([]complex128, l.BLen())
		if !fwd {
			dsts[zG] = make([]complex128, l.PadXLen)
		}
		for i := range dsts[zG] {
			dsts[zG][i] = sentinel
		}
		if path == "staged" {
			packs[zG] = make([]complex128, pc*l.BlockC)
			if fwd {
				PencilPackColFwdRange(l, packs[zG], srcs[zG], lo, hi)
			} else {
				PencilPackColInvRange(l, packs[zG], srcs[zG], lo, hi)
			}
		}
	}
	for zG, l := range g.lays {
		switch path {
		case "staged":
			recv := make([]complex128, pc*l.BlockC)
			for s := 0; s < pc; s++ {
				copy(recv[s*l.BlockC:(s+1)*l.BlockC], packs[s][zG*l.BlockC:(zG+1)*l.BlockC])
			}
			if fwd {
				PencilUnpackColFwdRange(l, dsts[zG], recv, lo, hi)
			} else {
				PencilUnpackColInvRange(l, dsts[zG], recv, lo, hi)
			}
		case "fused":
			if fwd {
				PencilGatherColFwdRange(l, dsts[zG], srcs, lo, hi)
			} else {
				PencilGatherColInvRange(l, dsts[zG], srcs, lo, hi)
			}
		case "rounds":
			for r := 0; r < pc; r++ {
				s := (zG + r) % pc
				if fwd {
					PencilGatherColFwdPeer(l, dsts[zG], srcs[s], s, lo, hi)
				} else {
					PencilGatherColInvPeer(l, dsts[zG], srcs[s], s, lo, hi)
				}
			}
		}
	}
	return dsts
}

// checkPlanes asserts that got equals want on y-planes [lo,hi) of a
// layout with plane elements per plane and count planes, and still
// holds the sentinel everywhere else (tail padding included).
func checkPlanes(t *testing.T, tag string, got, want []complex128, plane, count, lo, hi int, sentinel complex128) {
	t.Helper()
	for i, v := range got {
		exp := sentinel
		if iy := i / plane; iy >= lo && iy < hi && iy < count {
			exp = want[i]
		}
		if v != exp {
			t.Fatalf("%s: element %d (plane %d) = %v, want %v", tag, i, i/plane, v, exp)
		}
	}
}

// The four column kernels of each direction must place every element
// by its global coordinates for even and uneven x splits, and the
// staged pack → all-to-all → unpack triple, the fused gather and the
// per-peer rounds must agree; the inverse must recover X, so
// forward∘inverse is the identity.
func TestPencilKernelsRouteAndAgree(t *testing.T) {
	const n = 12
	const sentinel = complex(-1, -1)
	grids := []struct{ pr, pc int }{{1, 1}, {2, 2}, {3, 2}, {2, 3}, {1, 4}, {4, 1}, {6, 2}, {2, 4}}
	for _, gr := range grids {
		t.Run(fmt.Sprintf("%dx%d", gr.pr, gr.pc), func(t *testing.T) {
			for yG := 0; yG < gr.pr; yG++ {
				g := newColGroup(n, gr.pr, gr.pc, yG)
				my := g.lays[0].My
				bs := make([][]complex128, gr.pc)
				for zG := range bs {
					bs[zG] = g.wantB(zG)
				}
				for _, path := range colPaths {
					for zG, got := range g.run(true, path, g.x, 0, my, sentinel) {
						l := g.lays[zG]
						checkPlanes(t, fmt.Sprintf("col fwd %s (%d,%d)", path, yG, zG),
							got, bs[zG], l.N*l.Wc, my, 0, my, sentinel)
					}
					for zG, got := range g.run(false, path, bs, 0, my, sentinel) {
						l := g.lays[zG]
						checkPlanes(t, fmt.Sprintf("col inv %s (%d,%d)", path, yG, zG),
							got, g.x[zG], l.Mz*l.Nxh, my, 0, my, sentinel)
					}
				}
			}
		})
	}
}

// FuzzPencilColumnBijective drives the column kernels over fuzzed
// geometry and unit ranges: on every path and in both directions each
// destination element of the requested y-planes receives exactly the
// element its global coordinates name (sources are unique, so the map
// is a bijection), nothing outside those planes is written, no index
// leaves [0, len) of exactly-sized buffers, and the poisoned padding
// tail of X is never read.
func FuzzPencilColumnBijective(f *testing.F) {
	f.Fuzz(func(t *testing.T, half, prSel, pcSel, yG, lo, hi uint8) {
		n := 2 * (1 + int(half)%12)
		var prs, pcs []int
		for d := 1; d <= n; d++ {
			if n%d == 0 {
				prs = append(prs, d)
				if d <= n/2+1 {
					pcs = append(pcs, d)
				}
			}
		}
		pr, pc := prs[int(prSel)%len(prs)], pcs[int(pcSel)%len(pcs)]
		g := newColGroup(n, pr, pc, int(yG)%pr)
		my := g.lays[0].My
		a, b := int(lo)%(my+1), int(hi)%(my+1)
		if a > b {
			a, b = b, a
		}
		const sentinel = complex(-1, -1)
		bs := make([][]complex128, pc)
		for zG := range bs {
			bs[zG] = g.wantB(zG)
		}
		for _, path := range colPaths {
			for zG, got := range g.run(true, path, g.x, a, b, sentinel) {
				l := g.lays[zG]
				checkPlanes(t, fmt.Sprintf("N=%d %dx%d fwd %s rank %d [%d,%d)", n, pr, pc, path, zG, a, b),
					got, bs[zG], l.N*l.Wc, my, a, b, sentinel)
			}
			for zG, got := range g.run(false, path, bs, a, b, sentinel) {
				l := g.lays[zG]
				checkPlanes(t, fmt.Sprintf("N=%d %dx%d inv %s rank %d [%d,%d)", n, pr, pc, path, zG, a, b),
					got, g.x[zG], l.Mz*l.Nxh, my, a, b, sentinel)
			}
		}
	})
}

func TestNewPencilLayoutValidation(t *testing.T) {
	for _, bad := range []struct{ n, pr, pc, y, z int }{
		{11, 1, 1, 0, 0},  // odd n
		{12, 5, 1, 0, 0},  // pr does not divide n
		{12, 1, 5, 0, 0},  // pc does not divide n
		{12, 2, 12, 0, 0}, // pc > n/2+1... 12 > 7
		{12, 2, 2, 2, 0},  // yRank out of range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPencilLayout(%+v) did not panic", bad)
				}
			}()
			NewPencilLayout(bad.n, bad.pr, bad.pc, bad.y, bad.z)
		}()
	}
	l := NewPencilLayout(12, 3, 4, 1, 3)
	if l.My != 4 || l.Mz != 3 || l.Mz2 != 4 || l.Nxh != 7 {
		t.Fatalf("layout dims = %+v", l)
	}
	// nxh=7 over pc=4: spans 2,2,2,1; rank z=3 owns the short span.
	if l.Wc != 1 || l.XLo != 6 || l.WcMax != 2 {
		t.Fatalf("x split = Wc %d XLo %d WcMax %d", l.Wc, l.XLo, l.WcMax)
	}
	if l.PadXLen != (4*3*7+3)/4*4 {
		t.Fatalf("PadXLen = %d", l.PadXLen)
	}
}
