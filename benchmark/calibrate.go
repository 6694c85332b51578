package main

import (
	"math"
	"math/cmplx"
)

// The machine factor. This box's neighbours slow everything for
// minutes at a time, the fastest samples included, so no statistic
// taken inside one 20-second run can see past an episode. What can:
// a fixed piece of work that belongs to the benchmark, not to the
// program, timed right after every step under the same barriers on the
// same threads. Its low decile against the value pinned on the quiet
// reference box is the run's machine factor, and the step time is
// divided by it. A change to the program cannot move the factor; a
// noisy neighbour moves step and calibration together.

const (
	calN     = 64      // line length
	calLines = 33 * 32 // lines per array: about 1 MB per array
	// calRefMS is the low-decile time of one calKernel repetition on the
	// quiet 2-vCPU reference box, both threads running one each.
	calRefMS = 0.86
	// calShare is the calibration work done per step, as a share of the
	// workload's nominal step time.
	calShare = 0.15
)

// calKernel is the calibration work: for every line of 64 contiguous
// complex numbers six butterfly passes (in-cache arithmetic, the bulk of
// a transform), then a transposing copy of the whole array and a copy
// back (the strided memory traffic of an exchange). On this box that
// mix slows down under a neighbour by about as much as a solver step
// does; a kernel of strided butterflies overshot by a factor of two.
// Every butterfly is scaled to be unitary, so the data keep their norm
// however long the kernel runs and never drift into denormals. The
// kernel is frozen: editing it changes the unit every recorded number
// is expressed in.
type calKernel struct {
	a, b []complex128
	tw   []complex128
}

func newCalKernel() *calKernel {
	k := &calKernel{
		a:  make([]complex128, calN*calLines),
		b:  make([]complex128, calN*calLines),
		tw: make([]complex128, calN/2),
	}
	for i := range k.a {
		k.a[i] = complex(float64(i%17), float64(i%5))
	}
	for i := range k.tw {
		k.tw[i] = cmplx.Exp(complex(0, -2*math.Pi*float64(i)/calN))
	}
	return k
}

func (k *calKernel) run(reps int) {
	a, b, tw := k.a, k.b, k.tw
	const s = math.Sqrt2 / 2
	for r := 0; r < reps; r++ {
		for l := 0; l < calLines; l++ {
			x := a[l*calN : (l+1)*calN]
			for size := 2; size <= calN; size <<= 1 {
				half, stride := size/2, calN/size
				for start := 0; start < calN; start += size {
					for j := 0; j < half; j++ {
						u, v := x[start+j], x[start+j+half]*tw[j*stride]
						p, q := u+v, u-v
						x[start+j] = complex(real(p)*s, imag(p)*s)
						x[start+j+half] = complex(real(q)*s, imag(q)*s)
					}
				}
			}
		}
		const tile = 8
		for l0 := 0; l0 < calLines; l0 += tile {
			for j := 0; j < calN; j++ {
				for l := l0; l < l0+tile; l++ {
					b[j*calLines+l] = a[l*calN+j]
				}
			}
		}
		copy(a, b)
	}
}

// calReps is how many repetitions follow each step of a workload.
func calReps(w *workload) int {
	return max(1, int(math.Round(w.stepMS*calShare/calRefMS)))
}
