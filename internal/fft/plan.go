package fft

import (
	"fmt"

	"repro/internal/pool"
)

// Direction selects the sign of the transform exponent.
type Direction int

const (
	// Forward computes X[k] = Σ x[j]·exp(−2πi·jk/n), unnormalized.
	Forward Direction = -1
	// Inverse computes x[j] = (1/n)·Σ X[k]·exp(+2πi·jk/n).
	Inverse Direction = +1
)

// maxDirectPrime is the largest prime factor handled by the direct
// O(r²) butterfly; larger primes fall back to Bluestein's algorithm.
const maxDirectPrime = 61

// Plan holds the compiled stage program of a fixed transform length.
// A Plan carries internal scratch, so a single Plan must not be used
// concurrently; allocate one Plan per goroutine (as the per-worker
// plan maps in pfft and core do).
type Plan struct {
	n    int
	w    []complex128 // shared: w[j] = exp(−2πi·j/n)
	prog *program     // nil on the Bluestein path
	blue *bluestein   // non-nil when a prime factor exceeds maxDirectPrime
	work []complex128 // the program's block: n rows of the plan's width
	gen  []complex128 // generic-radix butterfly gather buffer
}

// NewPlan creates a plan for complex transforms of length n (n ≥ 1).
func NewPlan(n int) *Plan { return newPlan(n, 1) }

// newPlan creates a plan whose program block holds n rows of w lines,
// room for plane form at any width up to w.
func newPlan(n, w int) *Plan {
	if n < 1 {
		panic(fmt.Sprintf("fft: invalid length %d", n))
	}
	plansCreated.Add(1)
	p := &Plan{n: n}
	factors := factorize(n)
	maxF := 0
	for _, f := range factors {
		maxF = max(maxF, f)
	}
	if maxF > maxDirectPrime {
		p.blue = newBluestein(n)
		return p
	}
	p.w = twiddles(n)
	p.prog = compile(n, factors, p.w)
	p.work = pool.GetComplex(n * w)
	p.gen = pool.GetComplex(maxF)
	return p
}

// rows transforms, in place, the w lines of a block of n rows of w:
// element j of line t is z[j·w + t]. The program runs them as one plane
// (w = 1 is its line form); a Bluestein length transforms the block's
// columns one at a time at stride w. w must not exceed the plan's width.
//
//psdns:hotpath
func (p *Plan) rows(z []complex128, w int, dir Direction) {
	if p.blue == nil {
		p.prog.run(z, w, z, w, p.work, p.gen, w, dir)
		return
	}
	for t := 0; t < w; t++ {
		p.line(z[t:], w, z[t:], w, dir)
	}
}

// Release returns the plan's scratch buffers to the process buffer
// arena. The plan must not be used afterwards. Twiddle tables are
// shared and stay cached.
func (p *Plan) Release() {
	if p.blue != nil {
		p.blue.release()
		p.blue = nil
	}
	pool.PutComplex(p.work)
	pool.PutComplex(p.gen)
	p.work, p.gen = nil, nil
}

// Len reports the transform length of the plan.
func (p *Plan) Len() int { return p.n }

// Forward computes the forward DFT of src into dst. dst and src must
// each have length n and may alias.
func (p *Plan) Forward(dst, src []complex128) { p.run(dst, src, Forward) }

// Inverse computes the inverse DFT (including the 1/n factor) of src
// into dst. dst and src must each have length n and may alias.
func (p *Plan) Inverse(dst, src []complex128) { p.run(dst, src, Inverse) }

func (p *Plan) run(dst, src []complex128, dir Direction) {
	if len(dst) != p.n || len(src) != p.n {
		panic(fmt.Sprintf("fft: plan length %d, got dst %d src %d", p.n, len(dst), len(src)))
	}
	transforms.Add(1)
	p.line(dst, 1, src, 1, dir)
}

// line transforms the one line src[0], src[is], … into dst[0],
// dst[os], …, uncounted: Batch and RealBatch count their lines once
// per execution.
//
//psdns:hotpath
func (p *Plan) line(dst []complex128, os int, src []complex128, is int, dir Direction) {
	if p.blue != nil {
		p.blue.transform(dst, os, src, is, dir)
		return
	}
	p.prog.run(dst, os, src, is, p.work, p.gen, 1, dir)
}

// factorize returns the prime factorization of n in ascending order,
// with factors of 4 preferred over pairs of 2 for the radix-4 butterfly.
func factorize(n int) []int {
	var fs []int
	for n%4 == 0 {
		fs = append(fs, 4)
		n /= 4
	}
	for n%2 == 0 {
		fs = append(fs, 2)
		n /= 2
	}
	for f := 3; f*f <= n; f += 2 {
		for n%f == 0 {
			fs = append(fs, f)
			n /= f
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	return fs
}
