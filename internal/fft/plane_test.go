package fft

import (
	"math"
	"math/rand"
	"testing"
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

// Both forms, and the real line path, run without allocating.
func TestBatchFormsAllocFree(t *testing.T) {
	const n, hm = 48, 25
	buf := make([]complex128, n*hm)
	phys := make([]float64, n*hm)
	spec := make([]complex128, (n/2+1)*hm)
	line := NewContiguousBatch(n, hm)
	plane := NewBatch(n, hm, hm, 1, hm, 1)
	realB := NewRealBatch(n, hm, 1, n, 1, n/2+1)
	if line.tiles != 0 || plane.tiles == 0 {
		t.Fatalf("form selection: contiguous tiles=%d, interleaved tiles=%d", line.tiles, plane.tiles)
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
