package fft

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/metrics"
	"repro/internal/pool"
)

// bitsEqual compares two values bit for bit, signs of zero included.
func bitsEqual(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// planeVsLine runs howmany interleaved lines (dist 1) through one Batch
// and, line by line, through a single-line Plan — always the line form —
// and reports the first element that differs bitwise.
func planeVsLine(t *testing.T, n, howmany, istride, ostride int, dir Direction, inPlace bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n*1000 + howmany)))
	src := randComplex(rng, (n-1)*istride+howmany)
	dst := make([]complex128, (n-1)*ostride+howmany)
	want := make([]complex128, len(dst))
	p := NewPlan(n)
	defer p.Release()
	line, out := make([]complex128, n), make([]complex128, n)
	for l := 0; l < howmany; l++ {
		for j := range line {
			line[j] = src[l+j*istride]
		}
		p.run(out, line, dir)
		for k, v := range out {
			want[l+k*ostride] = v
		}
	}
	b := NewBatch(n, howmany, istride, 1, ostride, 1)
	defer b.Release()
	if plane := howmany > 1 && p.blue == nil; (b.tiles > 0) != plane {
		t.Fatalf("n=%d howmany=%d: plane form selected = %v, want %v", n, howmany, b.tiles > 0, plane)
	}
	if inPlace {
		dst = src
	}
	b.exec(dst, src, dir)
	for l := 0; l < howmany; l++ {
		for k := 0; k < n; k++ {
			if i := l + k*ostride; !bitsEqual(dst[i], want[i]) {
				t.Fatalf("n=%d howmany=%d strides %d→%d dir=%d inPlace=%v: line %d bin %d: plane %v, line %v",
					n, howmany, istride, ostride, dir, inPlace, l, k, dst[i], want[i])
			}
		}
	}
}

// Property: the plane form is the line form, bit for bit, at every
// length class (codelet, mixed radix, generic prime; Bluestein lengths
// stay in line form and must still agree), in both directions, in place
// and out of place with different input and output strides.
func TestPlaneFormMatchesLineForm(t *testing.T) {
	for n := 1; n <= 130; n++ {
		for _, hm := range []int{1, 7, 25, 33} {
			for _, dir := range []Direction{Forward, Inverse} {
				planeVsLine(t, n, hm, hm+2, hm, dir, false)
				planeVsLine(t, n, hm, hm+1, hm+1, dir, true)
			}
		}
	}
}

// A batch wider than one tile splits into near-equal tiles; the split
// must not show in the result.
func TestPlaneFormTiles(t *testing.T) {
	for _, n := range []int{48, 64, 130, 4096} {
		hm := 2*max(planeBlock/n, minTile) + 3
		if b := NewBatch(n, hm, hm, 1, hm, 1); b.tiles != 3 {
			t.Fatalf("n=%d howmany=%d: %d tiles, want 3", n, hm, b.tiles)
		}
		planeVsLine(t, n, hm, hm, hm, Inverse, true)
	}
}

// lineIndex maps each element of a layout's span to the line and the
// position within it that own it, -1 in a gap.
func lineIndex(span, howmany, m, stride, dist int) (line, pos []int) {
	line, pos = make([]int, span), make([]int, span)
	for i := range line {
		line[i], pos[i] = -1, -1
	}
	for l := 0; l < howmany; l++ {
		for j := 0; j < m; j++ {
			line[l*dist+j*stride], pos[l*dist+j*stride] = l, j
		}
	}
	return line, pos
}

// planeRealLayouts are the layouts the plane-form real batch is checked
// on, each with a gap after every line or row on both sides, so a stray
// store lands on a watched sentinel: contiguous lines, lines interleaved
// one stride apart, and the two transposing mixes.
func planeRealLayouts(n, hm int) []realLayout {
	h := n/2 + 1
	return []realLayout{
		{hm, 1, n + 1, 1, h + 1},
		{hm, hm + 1, 1, hm + 2, 1},
		{hm, hm + 1, 1, 1, h + 1},
		{hm, 1, n + 1, hm + 2, 1},
	}
}

// realPlaneVsLine runs one layout of an even length n through a band-
// limited RealBatch, tiles of lines in plane form, at kb ∈ {1, ⌈h/2⌉,
// h, h+1} (h = n/2), and every line on its own through a RealPlan, and
// compares them bit for bit. Forward: bins below kb are the line's, and
// every other element — bins past the band, gaps — keeps its sentinel.
// Inverse: a spectrum holding NaN past the band and in the gaps gives,
// sample for sample, the line's inverse of that spectrum with +0 past
// the band, and the real side's gaps keep their sentinel.
func realPlaneVsLine(t *testing.T, n int, lay realLayout) {
	t.Helper()
	h, hm := n/2, lay.howmany
	rng := rand.New(rand.NewSource(int64(n*1000 + hm)))
	rlen, clen := lineSpan(hm, n, lay.rstride, lay.rdist), lineSpan(hm, h+1, lay.cstride, lay.cdist)
	rl, _ := lineIndex(rlen, hm, n, lay.rstride, lay.rdist)
	cl, ck := lineIndex(clen, hm, h+1, lay.cstride, lay.cdist)
	rsent := real(sentinel)
	phys, spec := make([]float64, rlen), make([]complex128, clen)
	for i := range phys {
		phys[i] = rsent
		if rl[i] >= 0 {
			phys[i] = rng.NormFloat64()
		}
	}
	for i := range spec {
		spec[i] = sentinel
		if cl[i] >= 0 {
			spec[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	rp := NewRealPlan(n)
	defer rp.Release()
	line, half := make([]float64, n), make([]complex128, h+1)
	wantF := make([][]complex128, hm)
	for l := range wantF {
		for j := range line {
			line[j] = phys[l*lay.rdist+j*lay.rstride]
		}
		rp.Forward(half, line)
		wantF[l] = append([]complex128(nil), half...)
	}
	got, in, gotR := make([]complex128, clen), make([]complex128, clen), make([]float64, rlen)
	for _, kb := range []int{1, (h + 1) / 2, h, h + 1} {
		name := fmt.Sprintf("n=%d howmany=%d layout %v kb=%d", n, hm, lay, kb)
		b := NewBandRealBatch(n, kb, hm, lay.rstride, lay.rdist, lay.cstride, lay.cdist)
		for i := range got {
			got[i] = sentinel
		}
		b.Forward(got, phys)
		for i, v := range got {
			w := sentinel
			if cl[i] >= 0 && ck[i] < kb {
				w = wantF[cl[i]][ck[i]]
			}
			if !bitsEqual(v, w) {
				t.Fatalf("%s: forward element %d (line %d bin %d) = %v, want %v", name, i, cl[i], ck[i], v, w)
			}
		}
		for i, v := range spec {
			in[i] = v
			if ck[i] >= kb {
				in[i] = complex(math.NaN(), math.NaN())
			}
		}
		for i := range gotR {
			gotR[i] = rsent
		}
		b.Inverse(gotR, in)
		b.Release()
		for l := 0; l < hm; l++ {
			for k := range half {
				half[k] = 0
				if k < kb {
					half[k] = spec[l*lay.cdist+k*lay.cstride]
				}
			}
			rp.Inverse(line, half)
			for j, w := range line {
				if v := gotR[l*lay.rdist+j*lay.rstride]; math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("%s: inverse line %d sample %d = %v, line form %v", name, l, j, v, w)
				}
			}
		}
		for i, v := range gotR {
			if rl[i] < 0 && math.Float64bits(v) != math.Float64bits(rsent) {
				t.Fatalf("%s: inverse stored %v into gap element %d", name, v, i)
			}
		}
	}
}

// Property: the real batch's plane form is the single line, bit for
// bit, in both directions, at every even length up to 130 (codelet,
// mixed radix and generic-radix halves) and at the Bluestein halves 134
// and 146, for one line, a few, and widths past one tile, on contiguous,
// interleaved and transposing layouts, and on every band class (one
// bin, half the bins, all but the Nyquist bin, all).
func TestRealPlaneFormMatchesLineForm(t *testing.T) {
	ns := []int{134, 146}
	for n := 2; n <= 130; n += 2 {
		ns = append(ns, n)
	}
	for _, n := range ns {
		for _, hm := range []int{1, 2, 7, 25, 33, 2*realTile(n) + 3} {
			for _, lay := range planeRealLayouts(n, hm) {
				realPlaneVsLine(t, n, lay)
			}
		}
	}
}

// A real batch wider than one tile splits into near-equal tiles (the
// N = 128 x pass of a slab y-plane into two of 32 lines); the split must
// not show in the result.
func TestRealPlaneFormTiles(t *testing.T) {
	for _, tc := range []struct{ n, hm, tiles, width int }{
		{128, 64, 2, 32},
		{48, 2*85 + 3, 3, 58},
		{64, 2*64 + 3, 3, 44},
		{128, 2*32 + 3, 3, 23},
		{4096, 2*8 + 3, 3, 7},
	} {
		b := NewRealBatch(tc.n, tc.hm, 1, tc.n, 1, tc.n/2+1)
		if width := len(b.p.z) / (tc.n / 2); b.tiles != tc.tiles || width != tc.width {
			t.Fatalf("n=%d howmany=%d: %d tiles of up to %d lines, want %d of up to %d", tc.n, tc.hm, b.tiles, width, tc.tiles, tc.width)
		}
		b.Release()
		realPlaneVsLine(t, tc.n, realLayout{tc.hm, 1, tc.n, 1, tc.n/2 + 1})
		realPlaneVsLine(t, tc.n, planeRealLayouts(tc.n, tc.hm)[1])
	}
}

// Both forms, and the real batch past one tile, run without allocating,
// and a released real batch's blocks serve the next one of its shape.
func TestBatchFormsAllocFree(t *testing.T) {
	const n, hm = 48, 25
	rhm := 2*realTile(n) + 3
	buf := make([]complex128, n*hm)
	phys := make([]float64, n*rhm)
	spec := make([]complex128, (n/2+1)*rhm)
	line := NewContiguousBatch(n, hm)
	plane := NewBatch(n, hm, hm, 1, hm, 1)
	realB := NewRealBatch(n, rhm, 1, n, 1, n/2+1)
	if line.tiles != 0 || plane.tiles == 0 || realB.tiles < 2 {
		t.Fatalf("form selection: contiguous tiles=%d, interleaved tiles=%d, real tiles=%d", line.tiles, plane.tiles, realB.tiles)
	}
	for name, f := range map[string]func(){
		"line":  func() { line.Forward(buf, buf); line.Inverse(buf, buf) },
		"plane": func() { plane.Forward(buf, buf); plane.Inverse(buf, buf) },
		"real":  func() { realB.Forward(spec, phys); realB.Inverse(phys, spec) },
	} {
		if a := testing.AllocsPerRun(10, f); a != 0 {
			t.Errorf("%s form: %v allocs per run, want 0", name, a)
		}
	}
	realB.Release()
	misses := func() int64 {
		reg := metrics.NewRegistry()
		pool.PublishMetrics(reg)
		return reg.Counter("pool.miss").Value()
	}
	miss := misses()
	NewRealBatch(n, rhm, 1, n, 1, n/2+1).Release()
	if m := misses(); m != miss {
		t.Errorf("a real batch built after Release missed the arena %d times, want 0", m-miss)
	}
}

// Batches count their lines once per execution, and the totals are what
// a line-by-line count gives: one complex transform per line (three on
// the Bluestein path, whose two inner transforms count themselves), and
// per real line one real plus one half-length complex transform.
func TestBatchCountsLinesPerExecution(t *testing.T) {
	delta := func(f func()) (c, r int64) {
		c0, r0 := transforms.Load(), realTransforms.Load()
		f()
		return transforms.Load() - c0, realTransforms.Load() - r0
	}
	const hm = 7
	for _, tc := range []struct {
		name  string
		n     int
		c, r  int64
		build func(n int) func()
	}{
		{"line", 12, hm, 0, func(n int) func() {
			b, buf := NewContiguousBatch(n, hm), make([]complex128, n*hm)
			return func() { b.Forward(buf, buf) }
		}},
		{"plane", 12, hm, 0, func(n int) func() {
			b, buf := NewBatch(n, hm, hm, 1, hm, 1), make([]complex128, n*hm)
			return func() { b.Inverse(buf, buf) }
		}},
		{"bluestein", 67, 3 * hm, 0, func(n int) func() {
			b, buf := NewBatch(n, hm, hm, 1, hm, 1), make([]complex128, n*hm)
			return func() { b.Forward(buf, buf) }
		}},
		{"real", 12, hm, hm, func(n int) func() {
			b := NewRealBatch(n, hm, 1, n, 1, n/2+1)
			phys, spec := make([]float64, n*hm), make([]complex128, (n/2+1)*hm)
			return func() { b.Forward(spec, phys) }
		}},
		{"plan", 12, 1, 0, func(n int) func() {
			p, buf := NewPlan(n), make([]complex128, n)
			return func() { p.Forward(buf, buf) }
		}},
	} {
		if c, r := delta(tc.build(tc.n)); c != tc.c || r != tc.r {
			t.Errorf("%s: counted %d complex + %d real transforms, want %d + %d", tc.name, c, r, tc.c, tc.r)
		}
	}
}
