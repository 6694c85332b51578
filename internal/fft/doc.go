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
// Conventions: the forward transform computes
//
//	X[k] = Σ_j x[j]·exp(−2πi·jk/n)
//
// and is unnormalized; the inverse transform includes the 1/n factor so
// that Inverse(Forward(x)) == x.
package fft
