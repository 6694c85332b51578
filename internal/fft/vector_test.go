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
// leaves) run vector code on the even prefix of each row where the CPU
// has it (rows2 and rows3 only unscaled). These tests call each kernel and its Go body (from
// column 0) on copies of one input and require the same bits at every
// element of the output buffers, padding included.

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
			rows4leafGo(out, in, s, c.w, 0, c.fwd)
		case vector:
			rows8leaf(out, in, s, c.w, c.fwd, sgn)
		default:
			rows8leafGo(out, in, s, c.w, 0, c.fwd, sgn)
		}
		return
	}
	istep, orow, ostep := c.steps()
	switch {
	case c.r == 2 && vector:
		rows2(out, ostep, orow, in, istep, c.m, c.w, tw, sc, c.scaled)
	case c.r == 2:
		rows2Go(out, ostep, orow, in, istep, c.m, c.w, 0, tw, sc, c.scaled)
	case c.r == 3 && vector:
		rows3(out, ostep, orow, in, istep, c.m, c.w, tw, sgn*sin3, sc, c.scaled)
	case c.r == 3:
		rows3Go(out, ostep, orow, in, istep, c.m, c.w, 0, tw, sgn*sin3, sc, c.scaled)
	case vector:
		rows4(out, ostep, orow, in, istep, c.m, c.w, tw, c.fwd, sc, c.scaled)
	default:
		rows4Go(out, ostep, orow, in, istep, c.m, c.w, 0, tw, c.fwd, sc, c.scaled)
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
	for i := 0; 8*i+8 <= len(raw) && i < 2*nin; i++ {
		f := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		if v := &in[i/2]; i%2 == 0 {
			*v = complex(f, imag(*v))
		} else {
			*v = complex(real(*v), f)
		}
	}
	for i := range tw {
		if rng.Intn(2) == 0 {
			tw[i] = complex(math.Cos(float64(i)), -math.Sin(float64(i)))
		}
	}
	sc := complex(1/float64(1+rng.Intn(200)), 0)
	if rng.Intn(4) == 0 {
		sc = complex(kernelValue(rng), kernelValue(rng))
	}
	// Finite sentinels: an element written by one side alone differs.
	out := make([]complex128, nout)
	for i := range out {
		out[i] = complex(float64(i)+0.25, -7)
	}
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

// TestPlaneKernelsMatchGoBodies covers every vectorized kernel at
// widths 1–70 (odd widths run the Go body on the last column), both
// directions, scaled (radix 4) and unscaled stages, one to three row
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

// BenchmarkPlaneKernels times each plane kernel (vector) and its Go body
// (go) in cache at the tile widths the engines run, reporting ns per
// line: one call transforms one stage (m = 4 row groups) or one leaf of
// w lines, out of place so that repeated calls see the same normal
// inputs (in place, the values would drift into subnormals or
// infinities). Run with -bench PlaneKernels -benchtime 20000x.
func BenchmarkPlaneKernels(b *testing.B) {
	cases := []kernelCase{{r: 2, m: 4}, {r: 3, m: 4}, {r: 4, m: 4}, {r: 4, m: 4, scaled: true}, {leaf: 4}, {leaf: 8}}
	for _, c := range cases {
		for _, w := range []int{8, 16, 22, 32, 64} {
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
