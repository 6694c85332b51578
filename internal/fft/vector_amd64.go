//go:build amd64 && !race

package fft

// The plane-form stage and leaf bodies as AVX2 kernels (vector_amd64.s).
// A YMM register holds two adjacent lines' complex values, so one
// instruction sequence runs a butterfly on columns t and t+1 of a row.
// The kernels cover the even prefix of each row; an odd last column
// runs the Go body. Each kernel evaluates, per element, the IEEE
// operations of its Go body in the same order and without fusing a
// multiply into an add, so its results are the Go body's bit for bit
// (doc.go gives the argument; vector_test.go checks it). The radix-2
// and radix-3 kernels take only unscaled stages, the only ones the
// engines' lengths run through them; a scaled radix-2 or radix-3 last
// stage runs its Go body. Under the race detector, which does not see
// the memory an assembly kernel touches, vector_other.go's Go bodies
// serve every row.

// useAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// state; it is read once, at package initialization.
var useAVX2 = cpuAVX2()

func cpuAVX2() bool

//go:noescape
func rows2AVX2(out *complex128, ostep, orow int, in *complex128, istep, m, w, n int, tw *complex128)

//go:noescape
func rows3AVX2(out *complex128, ostep, orow int, in *complex128, istep, m, w, n int, tw *complex128, negIm float64)

//go:noescape
func rows4AVX2(out *complex128, ostep, orow int, in *complex128, istep, m, w, n int, tw *complex128, fwd bool, sc complex128, scaled bool)

//go:noescape
func rows4leafAVX2(out *complex128, w int, x *complex128, s, n int, fwd bool)

//go:noescape
func rows8leafAVX2(out *complex128, w int, x *complex128, s, n int, fwd bool, sgn float64)

// vecCols is the number of leading columns of a w-wide row the vector
// kernels take: the even prefix, or none without AVX2. Before each
// kernel call, one index expression per slice checks the last element
// the kernel touches there, so a short slice panics as the Go body's
// indexing would instead of reaching the assembly.
func vecCols(w int) int {
	if !useAVX2 {
		return 0
	}
	return w &^ 1
}

func rows2(out []complex128, ostep, orow int, in []complex128, istep, m, w int, tw []complex128, sc complex128, scaled bool) {
	t0 := 0
	if !scaled {
		t0 = vecCols(w)
	}
	if t0 > 0 {
		_, _, _ = out[(m-1)*orow+ostep+w-1], in[(m-1)*w+istep+w-1], tw[m-1]
		rows2AVX2(&out[0], ostep, orow, &in[0], istep, m, w, t0, &tw[0])
	}
	if t0 < w {
		rows2Go(out, ostep, orow, in, istep, m, w, t0, tw, sc, scaled)
	}
}

func rows3(out []complex128, ostep, orow int, in []complex128, istep, m, w int, tw []complex128, im float64, sc complex128, scaled bool) {
	t0 := 0
	if !scaled {
		t0 = vecCols(w)
	}
	if t0 > 0 {
		_, _, _ = out[(m-1)*orow+2*ostep+w-1], in[(m-1)*w+2*istep+w-1], tw[2*m-1]
		rows3AVX2(&out[0], ostep, orow, &in[0], istep, m, w, t0, &tw[0], -im)
	}
	if t0 < w {
		rows3Go(out, ostep, orow, in, istep, m, w, t0, tw, im, sc, scaled)
	}
}

func rows4(out []complex128, ostep, orow int, in []complex128, istep, m, w int, tw []complex128, fwd bool, sc complex128, scaled bool) {
	t0 := vecCols(w)
	if t0 > 0 {
		_, _, _ = out[(m-1)*orow+3*ostep+w-1], in[(m-1)*w+3*istep+w-1], tw[3*m-1]
		rows4AVX2(&out[0], ostep, orow, &in[0], istep, m, w, t0, &tw[0], fwd, sc, scaled)
	}
	if t0 < w {
		rows4Go(out, ostep, orow, in, istep, m, w, t0, tw, fwd, sc, scaled)
	}
}

func rows4leaf(out, x []complex128, s, w int, fwd bool) {
	t0 := vecCols(w)
	if t0 > 0 {
		_, _ = out[4*w-1], x[3*s+w-1]
		rows4leafAVX2(&out[0], w, &x[0], s, t0, fwd)
	}
	if t0 < w {
		rows4leafGo(out, x, s, w, t0, fwd)
	}
}

func rows8leaf(out, x []complex128, s, w int, fwd bool, sgn float64) {
	t0 := vecCols(w)
	if t0 > 0 {
		_, _ = out[8*w-1], x[7*s+w-1]
		rows8leafAVX2(&out[0], w, &x[0], s, t0, fwd, sgn)
	}
	if t0 < w {
		rows8leafGo(out, x, s, w, t0, fwd, sgn)
	}
}
