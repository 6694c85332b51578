//go:build !amd64 || race

package fft

// Without the amd64 vector kernels every plane row and real-pass tile
// runs its Go body. Race builds take this path on amd64 too: the race
// detector does not instrument assembly, so only the Go bodies let it
// see a plane pass's reads and writes.

var useAVX2 = false

func rows2(out []complex128, ostep, orow int, in []complex128, istep, m, w int, tw []complex128, sc complex128, scaled bool) {
	rows2Go(out, ostep, orow, in, istep, m, w, tw, sc, scaled)
}

func rows3(out []complex128, ostep, orow int, in []complex128, istep, m, w int, tw []complex128, im float64, sc complex128, scaled bool) {
	rows3Go(out, ostep, orow, in, istep, m, w, tw, im, sc, scaled)
}

func rows4(out []complex128, ostep, orow int, in []complex128, istep, m, w int, tw []complex128, fwd bool, sc complex128, scaled bool) {
	rows4Go(out, ostep, orow, in, istep, m, w, tw, fwd, sc, scaled)
}

func rows4leaf(out, x []complex128, s, w int, fwd bool) { rows4leafGo(out, x, s, w, fwd) }

func rows8leaf(out, x []complex128, s, w int, fwd bool, sgn float64) {
	rows8leafGo(out, x, s, w, fwd, sgn)
}

func pack(z []complex128, w, h int, src []float64, rs, rd int) { packGo(z, w, h, src, rs, rd) }

func post(dst []complex128, cs, cd int, z []complex128, w, k, kh, rows int, wr []complex128) {
	postGo(dst, cs, cd, z, w, k, kh, rows, wr)
}

func unfoldRows(z []complex128, w int, src []complex128, cs, cd, k, kh, rows int, wr []complex128, inK, inH bool) {
	unfoldRowsGo(z, w, src, cs, cd, k, kh, rows, wr, inK, inH)
}

func unpack(dst []float64, rs, rd int, z []complex128, w, h int) { unpackGo(dst, rs, rd, z, w, h) }
