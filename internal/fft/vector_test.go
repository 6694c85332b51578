package fft

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The plane-form kernels (rows2, rows3, rows4 and the 4- and 8-point
// leaves) and the real pass's pack, post-pass, pre-pass and unpack run
// vector code on every column of a row where the CPU has it (rows2 and
// rows3 only unscaled, pack and unpack only at unit real stride). These
// tests call each kernel and its Go body on copies of one input and
// require the same bits at every element of the output buffers, padding
// included.

// sameBits is bitsEqual with any NaN matching any NaN: Go leaves the
// payload and sign of a NaN result unspecified, and its compiler may
// swap the operands of a commutative operation, which picks the payload
// an operation on two NaNs returns.
func sameBits(a, b complex128) bool {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	}
	return same(real(a), real(b)) && same(imag(a), imag(b))
}

// specials are the values the kernels must pass through as the Go body
// does: signed zeros, infinities, NaN, subnormals, values whose
// products and sums overflow, and exact small integers.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308, -1.5e-310,
	math.MaxFloat64, -math.MaxFloat64, 8.98846567431158e307, -1.3e308, 1, -1, 0.5,
}

// kernelValue draws a float: a special one time in four, otherwise a
// random sign and mantissa at a random binary exponent in [−60, 60].
func kernelValue(rng *rand.Rand) float64 {
	if rng.Intn(4) == 0 {
		return specials[rng.Intn(len(specials))]
	}
	return math.Ldexp(rng.Float64()-0.5, rng.Intn(121)-60)
}

func kernelValues(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(kernelValue(rng), kernelValue(rng))
	}
	return v
}

// overwrite replaces the first floats of v (real, imaginary, real, …)
// bit for bit with raw's 8-byte little-endian words.
func overwrite(v []complex128, raw []byte) {
	for i := 0; 8*i+8 <= len(raw) && i < 2*len(v); i++ {
		f := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		if p := &v[i/2]; i%2 == 0 {
			*p = complex(f, imag(*p))
		} else {
			*p = complex(real(*p), f)
		}
	}
}

// sentinels returns n finite values that no kernel writes: an element
// written by one side alone differs.
func sentinels(n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(float64(i)+0.25, -7)
	}
	return v
}

// kernelCase is one call of a plane kernel: radix r (2, 3, 4) for a
// stage, leaf (4, 8) for a leaf codelet, on m row groups of w
// columns. pad widens the input step, the output step and the output
// row beyond the dense layout; inPlace runs a stage on one buffer at
// the dense layout.
type kernelCase struct {
	r, leaf, m, w, pad int
	fwd, scaled        bool
	inPlace            bool
}

func (c kernelCase) String() string {
	kind := fmt.Sprintf("rows%d", c.r)
	if c.leaf > 0 {
		kind = fmt.Sprintf("rows%dleaf", c.leaf)
	}
	return fmt.Sprintf("%s m=%d w=%d pad=%d fwd=%v scaled=%v inPlace=%v", kind, c.m, c.w, c.pad, c.fwd, c.scaled, c.inPlace)
}

// run calls the kernel (vector) or its Go body from column 0 (!vector)
// from in to out with twiddles tw and scale sc.
func (c kernelCase) run(vector bool, out, in, tw []complex128, sc complex128) {
	sgn := -1.0
	if c.fwd {
		sgn = 1
	}
	if c.leaf > 0 {
		s := c.w + c.pad
		switch {
		case c.leaf == 4 && vector:
			rows4leaf(out, in, s, c.w, c.fwd)
		case c.leaf == 4:
			rows4leafGo(out, in, s, c.w, c.fwd)
		case vector:
			rows8leaf(out, in, s, c.w, c.fwd, sgn)
		default:
			rows8leafGo(out, in, s, c.w, c.fwd, sgn)
		}
		return
	}
	istep, orow, ostep := c.steps()
	switch {
	case c.r == 2 && vector:
		rows2(out, ostep, orow, in, istep, c.m, c.w, tw, sc, c.scaled)
	case c.r == 2:
		rows2Go(out, ostep, orow, in, istep, c.m, c.w, tw, sc, c.scaled)
	case c.r == 3 && vector:
		rows3(out, ostep, orow, in, istep, c.m, c.w, tw, sgn*sin3, sc, c.scaled)
	case c.r == 3:
		rows3Go(out, ostep, orow, in, istep, c.m, c.w, tw, sgn*sin3, sc, c.scaled)
	case vector:
		rows4(out, ostep, orow, in, istep, c.m, c.w, tw, c.fwd, sc, c.scaled)
	default:
		rows4Go(out, ostep, orow, in, istep, c.m, c.w, tw, c.fwd, sc, c.scaled)
	}
}

// steps returns a stage's input step and output row and step, in
// elements: the block layout of a stage inside the program (rows of w,
// steps of m·w) widened by pad.
func (c kernelCase) steps() (istep, orow, ostep int) {
	if c.inPlace {
		return c.m * c.w, c.w, c.m * c.w
	}
	orow = c.w + c.pad
	return c.m*c.w + c.pad, orow, c.m*orow + c.pad
}

// lens returns the input, output and twiddle lengths the case reads and
// writes, plus a margin past each end.
func (c kernelCase) lens() (nin, nout, ntw int) {
	const margin = 3
	if c.leaf > 0 {
		return (c.leaf-1)*(c.w+c.pad) + c.w + margin, c.leaf*c.w + margin, 0
	}
	istep, orow, ostep := c.steps()
	return (c.m-1)*c.w + (c.r-1)*istep + c.w + margin, (c.m-1)*orow + (c.r-1)*ostep + c.w + margin, (c.r - 1) * c.m
}

// check runs the case on copies of one draw and fails on the first
// element of the output (or, in place, of the shared buffer) whose bits
// differ. raw's 8-byte little-endian words replace the first input
// floats (real, imaginary, real, …) bit for bit.
func (c kernelCase) check(t *testing.T, rng *rand.Rand, raw []byte) {
	t.Helper()
	nin, nout, ntw := c.lens()
	in, tw := kernelValues(rng, nin), kernelValues(rng, ntw)
	overwrite(in, raw)
	for i := range tw {
		if rng.Intn(2) == 0 {
			tw[i] = complex(math.Cos(float64(i)), -math.Sin(float64(i)))
		}
	}
	sc := complex(1/float64(1+rng.Intn(200)), 0)
	if rng.Intn(4) == 0 {
		sc = complex(kernelValue(rng), kernelValue(rng))
	}
	out := sentinels(nout)
	if c.inPlace {
		out, nout = in, nin
	}
	got, want := append([]complex128(nil), out...), append([]complex128(nil), out...)
	gin, win := append([]complex128(nil), in...), append([]complex128(nil), in...)
	if c.inPlace {
		gin, win = got, want
	}
	c.run(true, got, gin, tw, sc)
	c.run(false, want, win, tw, sc)
	for i := 0; i < nout; i++ {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%v: element %d: kernel %v, Go body %v", c, i, got[i], want[i])
		}
	}
}

// TestPlaneKernelsMatchGoBodies covers every vectorized stage and leaf
// kernel at widths 1–70 (odd widths run the kernel's one-column tail),
// both directions, scaled (radix 4) and unscaled stages, one to three row
// groups, and dense, padded and in-place layouts.
func TestPlaneKernelsMatchGoBodies(t *testing.T) {
	if !useAVX2 {
		t.Skip("no vector kernels on this CPU: the plane rows run their Go bodies")
	}
	rng := rand.New(rand.NewSource(50))
	for w := 1; w <= 70; w++ {
		for _, fwd := range []bool{true, false} {
			for _, leaf := range []int{4, 8} {
				for _, pad := range []int{0, 3} {
					kernelCase{leaf: leaf, w: w, pad: pad, fwd: fwd}.check(t, rng, nil)
				}
			}
			for _, r := range []int{2, 3, 4} {
				for m := 1; m <= 3; m++ {
					for _, scaled := range []bool{false, r == 4} {
						kernelCase{r: r, m: m, w: w, pad: 5, fwd: fwd, scaled: scaled}.check(t, rng, nil)
						kernelCase{r: r, m: m, w: w, fwd: fwd, scaled: scaled, inPlace: true}.check(t, rng, nil)
					}
				}
			}
		}
	}
}

// FuzzPlaneKernels draws the kernel, its layout and its inputs: kind
// picks rows2, rows3, rows4 or a 4- or 8-point leaf, flags the
// direction, the scale (radix 4 only) and an in-place stage, and raw's 8-byte words
// overwrite the first input values bit for bit (the rest come from the
// seed). Seeds: the f.Add calls.
func FuzzPlaneKernels(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(22), uint8(0), uint8(1), int64(1), []byte{})
	f.Add(uint8(3), uint8(1), uint8(9), uint8(2), uint8(6), int64(2), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Add(uint8(4), uint8(1), uint8(64), uint8(1), uint8(1), int64(3), []byte{1, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(1), uint8(4), uint8(3), uint8(0), uint8(5), int64(4), []byte{})
	f.Add(uint8(2), uint8(3), uint8(17), uint8(0), uint8(6), int64(5), []byte{})
	f.Fuzz(func(t *testing.T, kind, m, w, pad, flags uint8, seed int64, raw []byte) {
		if !useAVX2 {
			t.Skip("no vector kernels on this CPU")
		}
		c := kernelCase{m: 1 + int(m)%4, w: 1 + int(w)%70, pad: int(pad) % 8,
			fwd: flags&1 != 0, scaled: flags&2 != 0, inPlace: flags&4 != 0}
		switch k := int(kind) % 5; {
		case k < 3:
			c.r = k + 2
			c.scaled = c.scaled && c.r == 4
		default:
			c.leaf, c.m, c.scaled, c.inPlace = 4<<(k-3), 1, false, false
		}
		c.check(t, rand.New(rand.NewSource(seed)), raw)
	})
}

// goBodies runs f with every dispatcher on its Go body.
func goBodies(f func()) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	useAVX2 = false
	f()
}

// realCase is one tile of the real pass: h = n/2 rows of w lines, the
// half-spectra at complex stride cs and line distance cd = cs·(h+1) +
// pad, and real lines rd = 2h + pad apart.
type realCase struct{ h, w, cs, pad int }

func (c realCase) String() string {
	return fmt.Sprintf("real pass h=%d w=%d cs=%d pad=%d", c.h, c.w, c.cs, c.pad)
}

// check runs each step of the tile on copies of one draw through the
// dispatchers and through the Go bodies, and fails on the first element
// whose bits differ: the pack, the unpack, and for every band kb in
// [1, h+1] the post-pass (rows 0 and h, and rows 1 … min(kb, h)−1) and
// the pre-pass (each of its band cases, and the cleared rows). The
// spectrum's bins from kb on hold NaN, which a pre-pass that read them
// would carry into its output. raw's words replace the first values of
// the tile and of the spectrum bit for bit.
func (c realCase) check(t *testing.T, p *RealPlan, rng *rand.Rand, raw []byte) {
	t.Helper()
	h, w, cs := c.h, c.w, c.cs
	cd, rd := cs*(h+1)+c.pad, 2*h+c.pad
	nz, nc, nr := h*w, (w-1)*cd+h*cs+1, (w-1)*rd+2*h
	tile, spec := kernelValues(rng, nz), kernelValues(rng, nc)
	samples := make([]float64, nr)
	for i := range samples {
		samples[i] = kernelValue(rng)
	}
	overwrite(tile, raw)
	overwrite(spec, raw)
	compare := func(step string, kb int, run func() []complex128) {
		t.Helper()
		var want []complex128
		got := run()
		goBodies(func() { want = run() })
		for i := range got {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%v: %s at kb=%d: element %d: kernel %v, Go body %v", c, step, kb, i, got[i], want[i])
			}
		}
	}
	compare("pack", 0, func() []complex128 {
		z := sentinels(nz + 3)
		pack(z, w, h, samples, 1, rd)
		return z
	})
	compare("unpack", 0, func() []complex128 {
		d := make([]float64, nr+3)
		for i := range d {
			d[i] = float64(i) + 0.25
		}
		unpack(d, 1, rd, tile, w, h)
		v := make([]complex128, len(d))
		for i, f := range d {
			v[i] = complex(f, 0)
		}
		return v
	})
	band := make([]complex128, nc)
	for kb := 1; kb <= h+1; kb++ {
		compare("post-pass", kb, func() []complex128 {
			dst := sentinels(nc + 3)
			p.postPass(dst, cs, cd, tile, kb, w)
			return dst
		})
		copy(band, spec)
		for l := 0; l < w; l++ {
			for k := kb; k <= h; k++ {
				band[l*cd+k*cs] = complex(math.NaN(), math.NaN())
			}
		}
		compare("pre-pass", kb, func() []complex128 {
			z := sentinels(nz + 3)
			p.prePass(z, band, cs, cd, kb, w)
			return z
		})
	}
}

// realHalves are the half lengths h = n/2 the real-pass tests run: the
// engines' (24 and 32 at N = 48 and 64), the smallest, and a wide one.
var realHalves = []int{2, 4, 6, 8, 12, 16, 24, 32, 64}

// TestRealPassKernelsMatchGoBodies covers the real pass's kernels at
// every width 1–70 and every band for each h of realHalves, with dense
// and padded half-spectra at unit and stride-2 bins.
func TestRealPassKernelsMatchGoBodies(t *testing.T) {
	if !useAVX2 {
		t.Skip("no vector kernels on this CPU: the real pass runs its Go bodies")
	}
	rng := rand.New(rand.NewSource(51))
	for _, h := range realHalves {
		p := newRealPlan(2*h, 70)
		for w := 1; w <= 70; w++ {
			realCase{h: h, w: w, cs: 1 + w/2%2, pad: w % 3}.check(t, p, rng, nil)
		}
		p.Release()
	}
}

// FuzzRealPassKernels draws a real tile's half length (from
// realHalves), width, layout and inputs; raw's 8-byte words overwrite
// the first values of the tile and the spectrum bit for bit. Seeds: the
// f.Add calls.
func FuzzRealPassKernels(f *testing.F) {
	f.Add(uint8(6), uint8(21), uint8(0), int64(1), []byte{})
	f.Add(uint8(7), uint8(32), uint8(1), int64(2), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Add(uint8(0), uint8(0), uint8(2), int64(3), []byte{1, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(8), uint8(16), uint8(5), int64(4), []byte{})
	f.Fuzz(func(t *testing.T, hi, w, layout uint8, seed int64, raw []byte) {
		if !useAVX2 {
			t.Skip("no vector kernels on this CPU")
		}
		c := realCase{h: realHalves[int(hi)%len(realHalves)], w: 1 + int(w)%70, cs: 1 + int(layout)&1, pad: int(layout>>1) % 4}
		p := newRealPlan(2*c.h, c.w)
		defer p.Release()
		c.check(t, p, rand.New(rand.NewSource(seed)), raw)
	})
}

// BenchmarkPlaneKernels times each plane kernel (vector) and its Go body
// (go) in cache at the tile widths the engines run and two odd ones
// (a tail column each), reporting ns per
// line: one call transforms one stage (m = 4 row groups) or one leaf of
// w lines, out of place so that repeated calls see the same normal
// inputs (in place, the values would drift into subnormals or
// infinities). Run with -bench PlaneKernels -benchtime 20000x.
func BenchmarkPlaneKernels(b *testing.B) {
	cases := []kernelCase{{r: 2, m: 4}, {r: 3, m: 4}, {r: 4, m: 4}, {r: 4, m: 4, scaled: true}, {leaf: 4}, {leaf: 8}}
	for _, c := range cases {
		for _, w := range []int{8, 16, 17, 22, 32, 33, 64} {
			c.w, c.fwd = w, true
			rng := rand.New(rand.NewSource(1))
			nin, nout, ntw := c.lens()
			in, out, tw := make([]complex128, nin), make([]complex128, nout), make([]complex128, ntw)
			for i := range in {
				in[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			for i := range tw {
				tw[i] = complex(math.Cos(float64(i)), -math.Sin(float64(i)))
			}
			name := strings.Fields(c.String())[0]
			if c.scaled {
				name += "scaled"
			}
			for _, vector := range []bool{false, true} {
				form := "go"
				if vector {
					form = "vector"
				}
				b.Run(fmt.Sprintf("%s/w=%d/%s", name, w, form), func(b *testing.B) {
					for b.Loop() {
						c.run(vector, out, in, tw, complex(1.0/64, 0))
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*w), "ns/line")
				})
			}
		}
	}
}

// BenchmarkRealPassKernels times each step of the real pass through its
// kernel (vector) and its Go body (go) in cache on one N = 64 tile (h =
// 32) under the solver's band kb = 22, at even and odd widths, reporting
// ns per line. Run with -bench RealPassKernels -benchtime 20000x.
func BenchmarkRealPassKernels(b *testing.B) {
	const h, kb = 32, 22
	p := newRealPlan(2*h, 33)
	defer p.Release()
	for _, w := range []int{8, 17, 24, 32, 33} {
		rng := rand.New(rand.NewSource(1))
		cd, rd := h+1, 2*h
		z, tile, spec := make([]complex128, h*w), make([]complex128, h*w), make([]complex128, w*cd)
		samples, out := make([]float64, w*rd), make([]float64, w*rd)
		for i := range tile {
			tile[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for i := range spec {
			spec[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for i := range samples {
			samples[i] = rng.NormFloat64()
		}
		steps := []struct {
			name string
			run  func()
		}{
			{"pack", func() { pack(z, w, h, samples, 1, rd) }},
			{"post", func() { p.postPass(spec, 1, cd, tile, kb, w) }},
			{"pre", func() { p.prePass(z, spec, 1, cd, kb, w) }},
			{"unpack", func() { unpack(out, 1, rd, tile, w, h) }},
		}
		for _, step := range steps {
			for _, vector := range []bool{false, true} {
				form := "go"
				if vector {
					form = "vector"
				}
				b.Run(fmt.Sprintf("%s/w=%d/%s", step.name, w, form), func(b *testing.B) {
					loop := func() {
						for b.Loop() {
							step.run()
						}
					}
					if vector {
						loop()
					} else {
						goBodies(loop)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*w), "ns/line")
				})
			}
		}
	}
}
