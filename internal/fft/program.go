package fft

import (
	"math/cmplx"
	"slices"
)

// A plan compiles, once, to a flat stage program: a leaf pass that
// reads the input at its stride in digit-reversed order and leaves
// n/leaf short transforms in the plan's block, then the combine
// stages innermost first, each in place on that block except the
// last, which stores straight to the destination at its stride with
// the inverse's 1/n folded in. Every stage carries its own twiddle
// table for both directions in the order its loop reads it, so the
// loops hold no modulo, no conjugation and no direction test beyond
// the choice of table.
//
// The program runs in two forms that share the butterfly bodies of
// butterfly.go and therefore evaluate the same expression tree per
// output element. Line form (runLine) transforms one line at any
// strides. Plane form (runPlane) transforms w adjacent lines at once:
// "element" j of the transform is a row of w values, one per line,
// every butterfly's inner loop runs along the row, and one twiddle
// load serves the whole row. Batch takes it whenever the batch
// dimension is the contiguous one — the y and z passes of the slab
// engines — where line form would gather and scatter at a stride, and
// RealBatch always, on a block its pack transposes the lines into.

// stage is one radix-r combine pass over sub-transforms of length m.
type stage struct {
	r, m int
	// tw[d] holds, for each k1 < m in turn, the twiddles W^{q·k1} the
	// butterfly multiplies its inputs by: q = 1…r−1 for radix 2, 3, 4
	// and 5, q = 0…r−1 for the generic radix. d is Direction.index.
	tw [2][]complex128
	// wr[d][k2·r+q] = W_r^{q·k2}, generic radix only.
	wr [2][]complex128
}

// program is the compiled form of one transform length.
type program struct {
	n int
	// leaf is the length of the transforms the first pass computes
	// straight from the input: a codelet (1, 2, 4, 8), or the radix of
	// stages[0] when the innermost factor is odd and that stage reads
	// the input itself.
	leaf   int
	inOff  []int   // input index of each leaf's first sample; the rest follow n/leaf apart
	stages []stage // innermost first
}

// index maps Forward, Inverse to 0, 1.
func (d Direction) index() int { return int(d+1) >> 1 }

// compile builds the stage program for length n from its factor list
// (the order factorize returns is the order decimation peels them) and
// the shared table w[j] = exp(−2πi·j/n). A remainder of 2, 4 or 8
// becomes a leaf codelet: a composite with 2 | n has its factors drawn
// from {4, 2} ∪ odd in that order, so such a remainder is a pure power
// of two and the codelet is a complete DFT.
func compile(n int, factors []int, w []complex128) *program {
	pr := &program{n: n, leaf: n}
	var peeled []int
	for pr.leaf != 1 && pr.leaf != 2 && pr.leaf != 4 && pr.leaf != 8 {
		r := factors[len(peeled)]
		peeled = append(peeled, r)
		pr.leaf /= r
		pr.stages = append(pr.stages, newStage(n, r, pr.leaf, w))
	}
	slices.Reverse(pr.stages) // peeled outermost first, executed innermost first
	if pr.leaf == 1 && len(peeled) > 0 {
		pr.leaf = peeled[len(peeled)-1]
		peeled = peeled[:len(peeled)-1]
	}
	// Child q of a radix-r level whose input starts at o with stride s
	// reads from o + q·s at stride r·s: unroll that from the innermost
	// level, whose s is the product of the radices outside it, outward.
	pr.inOff = []int{0}
	s := n / pr.leaf
	for i := len(peeled) - 1; i >= 0; i-- {
		s /= peeled[i]
		next := make([]int, 0, len(pr.inOff)*peeled[i])
		for q := 0; q < peeled[i]; q++ {
			for _, o := range pr.inOff {
				next = append(next, q*s+o)
			}
		}
		pr.inOff = next
	}
	return pr
}

// fused reports whether stages[0] is the leaf pass.
func (pr *program) fused() bool { return len(pr.stages) > 0 && pr.stages[0].m == 1 }

// newStage lays out the twiddles of the radix-r stage whose blocks
// have length r·m: W_{r·m}^{q·k1} = w[q·k1·n/(r·m)], conjugated for
// the inverse direction.
func newStage(n, r, m int, w []complex128) stage {
	st := stage{r: r, m: m}
	ws := n / (r * m)
	q0 := 1
	if r > 5 {
		q0 = 0
		wr := make([]complex128, r*r)
		for k2 := 0; k2 < r; k2++ {
			for q := 0; q < r; q++ {
				wr[k2*r+q] = w[(ws*m*q*k2)%n]
			}
		}
		st.wr = [2][]complex128{wr, conjAll(wr)}
	}
	tw := make([]complex128, 0, (r-q0)*m)
	for k1 := 0; k1 < m; k1++ {
		for q := q0; q < r; q++ {
			tw = append(tw, w[(q*k1*ws)%n])
		}
	}
	st.tw = [2][]complex128{tw, conjAll(tw)}
	return st
}

func conjAll(v []complex128) []complex128 {
	c := make([]complex128, len(v))
	for i, x := range v {
		c[i] = cmplx.Conj(x)
	}
	return c
}
