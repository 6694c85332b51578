//go:build amd64 && !race

package fft

// The plane-form stage and leaf bodies and the real pass's bodies as
// AVX2 kernels (vector_amd64.s). A YMM register holds two adjacent
// lines' complex values, so one instruction sequence runs a butterfly
// on columns t and t+1 of a row; an odd last column runs the same
// sequence on one value. Each kernel evaluates, per element, the IEEE
// operations of its Go body in the same order and without fusing a
// multiply into an add, so its results are the Go body's bit for bit
// (doc.go gives the argument; vector_test.go checks it). The radix-2
// and radix-3 kernels take only unscaled stages, the only ones the
// engines' lengths run through them; a scaled radix-2 or radix-3 last
// stage runs its Go body, as does a real pass over non-unit real
// strides. Under the race detector, which does not see the memory an
// assembly kernel touches, vector_other.go's Go bodies serve every row.

// useAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// state; it is read once, at package initialization.
var useAVX2 = cpuAVX2()

func cpuAVX2() bool

//go:noescape
func rows2AVX2(out *complex128, ostep, orow int, in *complex128, istep, m, w int, tw *complex128)

//go:noescape
func rows3AVX2(out *complex128, ostep, orow int, in *complex128, istep, m, w int, tw *complex128, negIm float64)

//go:noescape
func rows4AVX2(out *complex128, ostep, orow int, in *complex128, istep, m, w int, tw *complex128, fwd bool, sc complex128, scaled bool)

//go:noescape
func rows4leafAVX2(out *complex128, w int, x *complex128, s int, fwd bool)

//go:noescape
func rows8leafAVX2(out *complex128, w int, x *complex128, s int, fwd bool, sgn float64)

//go:noescape
func packAVX2(z *complex128, w, h int, src *float64, rd int)

//go:noescape
func postAVX2(dst *complex128, cs, cd int, zk, zh *complex128, w, rows int, wr *complex128)

//go:noescape
func unfoldAVX2(z *complex128, w int, xk, xh *complex128, cs, cd, rows int, wr *complex128, inK, inH bool)

//go:noescape
func unpackAVX2(dst *float64, rd int, z *complex128, w, h int)

// Before each kernel call, one index expression per slice checks the
// last element the kernel touches there (and, for a row walked
// backwards, the first), so a short slice panics as the Go body's
// indexing would instead of reaching the assembly.

func rows2(out []complex128, ostep, orow int, in []complex128, istep, m, w int, tw []complex128, sc complex128, scaled bool) {
	if !useAVX2 || scaled {
		rows2Go(out, ostep, orow, in, istep, m, w, tw, sc, scaled)
		return
	}
	_, _, _ = out[(m-1)*orow+ostep+w-1], in[(m-1)*w+istep+w-1], tw[m-1]
	rows2AVX2(&out[0], ostep, orow, &in[0], istep, m, w, &tw[0])
}

func rows3(out []complex128, ostep, orow int, in []complex128, istep, m, w int, tw []complex128, im float64, sc complex128, scaled bool) {
	if !useAVX2 || scaled {
		rows3Go(out, ostep, orow, in, istep, m, w, tw, im, sc, scaled)
		return
	}
	_, _, _ = out[(m-1)*orow+2*ostep+w-1], in[(m-1)*w+2*istep+w-1], tw[2*m-1]
	rows3AVX2(&out[0], ostep, orow, &in[0], istep, m, w, &tw[0], -im)
}

func rows4(out []complex128, ostep, orow int, in []complex128, istep, m, w int, tw []complex128, fwd bool, sc complex128, scaled bool) {
	if !useAVX2 {
		rows4Go(out, ostep, orow, in, istep, m, w, tw, fwd, sc, scaled)
		return
	}
	_, _, _ = out[(m-1)*orow+3*ostep+w-1], in[(m-1)*w+3*istep+w-1], tw[3*m-1]
	rows4AVX2(&out[0], ostep, orow, &in[0], istep, m, w, &tw[0], fwd, sc, scaled)
}

func rows4leaf(out, x []complex128, s, w int, fwd bool) {
	if !useAVX2 {
		rows4leafGo(out, x, s, w, fwd)
		return
	}
	_, _ = out[4*w-1], x[3*s+w-1]
	rows4leafAVX2(&out[0], w, &x[0], s, fwd)
}

func rows8leaf(out, x []complex128, s, w int, fwd bool, sgn float64) {
	if !useAVX2 {
		rows8leafGo(out, x, s, w, fwd, sgn)
		return
	}
	_, _ = out[8*w-1], x[7*s+w-1]
	rows8leafAVX2(&out[0], w, &x[0], s, fwd, sgn)
}

func pack(z []complex128, w, h int, src []float64, rs, rd int) {
	if !useAVX2 || rs != 1 {
		packGo(z, w, h, src, rs, rd)
		return
	}
	_, _ = z[h*w-1], src[(w-1)*rd+2*h-1]
	packAVX2(&z[0], w, h, &src[0], rd)
}

func post(dst []complex128, cs, cd int, z []complex128, w, k, kh, rows int, wr []complex128) {
	if !useAVX2 {
		postGo(dst, cs, cd, z, w, k, kh, rows, wr)
		return
	}
	_, _, _, _ = dst[(w-1)*cd+(rows-1)*cs], z[(max(k+rows-1, kh)+1)*w-1], z[(kh-rows+1)*w], wr[rows-1]
	postAVX2(&dst[0], cs, cd, &z[k*w], &z[kh*w], w, rows, &wr[0])
}

func unfoldRows(z []complex128, w int, src []complex128, cs, cd, k, kh, rows int, wr []complex128, inK, inH bool) {
	if !useAVX2 {
		unfoldRowsGo(z, w, src, cs, cd, k, kh, rows, wr, inK, inH)
		return
	}
	_, _, _, _ = z[(k+rows)*w-1], src[(w-1)*cd+max(k+rows-1, kh)*cs], src[(kh-rows+1)*cs], wr[rows-1]
	unfoldAVX2(&z[k*w], w, &src[k*cs], &src[kh*cs], cs, cd, rows, &wr[0], inK, inH)
}

func unpack(dst []float64, rs, rd int, z []complex128, w, h int) {
	if !useAVX2 || rs != 1 {
		unpackGo(dst, rs, rd, z, w, h)
		return
	}
	_, _ = dst[(w-1)*rd+2*h-1], z[h*w-1]
	unpackAVX2(&dst[0], rd, &z[0], w, h)
}
