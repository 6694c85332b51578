package fft

// Leaf codelets: the length-2/4/8 DFTs of a strided input, computed
// directly — no twiddle table, exact ±1/±i/√2⁄2 arithmetic — on the
// shared butterfly bodies. They are the first pass of every stage
// program whose length has a power-of-two remainder (program.go):
// dft2/dft4/dft8 in line form, rows2leaf/rows4leaf/rows8leaf across a
// row of w adjacent lines in plane form, writing rows w apart.

// dft2 is the length-2 DFT of x[0], x[s] into out[0:2]. The single
// twiddle is W⁰ = 1 in both directions.
func dft2(out, x []complex128, s int) {
	a, b := x[0], x[s]
	out[0] = a + b
	out[1] = a - b
}

func rows2leaf(out, x []complex128, s, w int) {
	x0, x1 := x[:w], x[s:][:w]
	o0, o1 := out[:w], out[w:][:w]
	for t := range x0 {
		a, b := x0[t], x1[t]
		o0[t], o1[t] = a+b, a-b
	}
}

// dft4 is the length-4 DFT of x[0], x[s], x[2s], x[3s] into out[0:4].
func dft4(out, x []complex128, s int, dir Direction) {
	out[0], out[1], out[2], out[3] = bf4(x[0], x[s], x[2*s], x[3*s], dir == Forward)
}

// rows4leafGo and rows8leafGo are the plane-form leaf bodies over
// columns t < w: input q of column t is x[q·s + t], output k goes to
// out[k·w + t]. rows4leaf and rows8leaf (vector_amd64.go,
// vector_other.go) run them where no vector kernel serves the row, and
// the tests compare those kernels with them.
func rows4leafGo(out, x []complex128, s, w int, fwd bool) {
	x0, x1, x2, x3 := x[:w], x[s:][:w], x[2*s:][:w], x[3*s:][:w]
	o0, o1, o2, o3 := out[:w], out[w:][:w], out[2*w:][:w], out[3*w:][:w]
	for t := range x0 {
		o0[t], o1[t], o2[t], o3[t] = bf4(x0[t], x1[t], x2[t], x3[t], fwd)
	}
}

// dft8 is the length-8 DFT of x[0], x[s], … x[7s] into out[0:8]: two
// length-4 even/odd halves combined radix-2 with the exact eighth
// roots.
func dft8(out, x []complex128, s int, dir Direction) {
	e0, e1, e2, e3 := bf4(x[0], x[2*s], x[4*s], x[6*s], dir == Forward)
	o0, o1, o2, o3 := bf4(x[s], x[3*s], x[5*s], x[7*s], dir == Forward)
	t1, t2, t3 := tw8(o1, o2, o3, float64(-dir))
	out[0], out[4] = e0+o0, e0-o0
	out[1], out[5] = e1+t1, e1-t1
	out[2], out[6] = e2+t2, e2-t2
	out[3], out[7] = e3+t3, e3-t3
}

func rows8leafGo(out, x []complex128, s, w int, fwd bool, sgn float64) {
	x0, x1, x2, x3 := x[:w], x[s:][:w], x[2*s:][:w], x[3*s:][:w]
	x4, x5, x6, x7 := x[4*s:][:w], x[5*s:][:w], x[6*s:][:w], x[7*s:][:w]
	y0, y1, y2, y3 := out[:w], out[w:][:w], out[2*w:][:w], out[3*w:][:w]
	y4, y5, y6, y7 := out[4*w:][:w], out[5*w:][:w], out[6*w:][:w], out[7*w:][:w]
	for t := range x0 {
		e0, e1, e2, e3 := bf4(x0[t], x2[t], x4[t], x6[t], fwd)
		o0, o1, o2, o3 := bf4(x1[t], x3[t], x5[t], x7[t], fwd)
		t1, t2, t3 := tw8(o1, o2, o3, sgn)
		y0[t], y4[t] = e0+o0, e0-o0
		y1[t], y5[t] = e1+t1, e1-t1
		y2[t], y6[t] = e2+t2, e2-t2
		y3[t], y7[t] = e3+t3, e3-t3
	}
}
