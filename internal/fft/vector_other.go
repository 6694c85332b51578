//go:build !amd64 || race

package fft

// Without the amd64 vector kernels every plane row runs its Go body
// from the first column. Race builds take this path on amd64 too: the
// race detector does not instrument assembly, so only the Go bodies let
// it see a plane pass's reads and writes.

const useAVX2 = false

func rows2(out []complex128, ostep, orow int, in []complex128, istep, m, w int, tw []complex128, sc complex128, scaled bool) {
	rows2Go(out, ostep, orow, in, istep, m, w, 0, tw, sc, scaled)
}

func rows3(out []complex128, ostep, orow int, in []complex128, istep, m, w int, tw []complex128, im float64, sc complex128, scaled bool) {
	rows3Go(out, ostep, orow, in, istep, m, w, 0, tw, im, sc, scaled)
}

func rows4(out []complex128, ostep, orow int, in []complex128, istep, m, w int, tw []complex128, fwd bool, sc complex128, scaled bool) {
	rows4Go(out, ostep, orow, in, istep, m, w, 0, tw, fwd, sc, scaled)
}

func rows4leaf(out, x []complex128, s, w int, fwd bool) { rows4leafGo(out, x, s, w, 0, fwd) }

func rows8leaf(out, x []complex128, s, w int, fwd bool, sgn float64) {
	rows8leafGo(out, x, s, w, 0, fwd, sgn)
}
