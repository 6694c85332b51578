// Package fft provides from-scratch fast Fourier transforms used by the
// pseudo-spectral DNS code: complex-to-complex transforms of any length
// (mixed radix 2/3/4/5, generic butterflies for primes up to 61, and
// Bluestein's algorithm for lengths with larger prime factors),
// real-to-complex and complex-to-real transforms exploiting conjugate
// symmetry, and batched strided plans mirroring the plan semantics of
// cuFFT that the paper's GPU kernels rely on. Each plan compiles to a
// flat stage program (program.go) that a batch runs line by line or,
// when its lines are adjacent in memory, a plane of lines at a time; a
// real batch packs its lines into such a plane whatever their layout.
//
// On amd64 CPUs with AVX2 the plane form's radix-4 stages, its unscaled
// radix-2 and -3 stages and its 4- and 8-point leaf codelets, and the
// real pass's pack, post-pass, pre-pass and unpack (unit real stride),
// run assembly kernels over every column of a row, two lines per
// register and an odd last column on half of one (vector_amd64.s);
// other CPUs, other architectures and race builds (the race detector
// does not see memory that assembly touches) run the Go bodies. The
// pre-pass's out-of-band operand is a register of +0, the operand the
// Go body's unfold(xk, 0, wc) computes with. The choice is made once,
// from CPUID, and nothing can select it: a kernel performs, per element, the Go body's IEEE operations in
// the same order — no fused multiply-add, which Go on amd64 never emits
// either, and every ×0 term of a constant complex operand kept — so
// both paths produce the same bits (NaN payloads aside, which Go does
// not specify).
//
// Conventions: the forward transform computes
//
//	X[k] = Σ_j x[j]·exp(−2πi·jk/n)
//
// and is unnormalized; the inverse transform includes the 1/n factor so
// that Inverse(Forward(x)) == x.
package fft
