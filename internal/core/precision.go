package core

import (
	"repro/internal/cuda"
	"repro/internal/transpose"
)

// Single-precision communication staging: the paper's production code
// works entirely in single precision — Table 1's memory model and
// Table 2's message sizes all assume 4-byte words. Our numerics run in
// float64 for verifiable accuracy, but the pipeline can stage its
// all-to-all payloads through complex64 buffers, halving the bytes on
// the wire exactly as the paper's code would, at the cost of ~1e-7
// relative rounding per transform. The strided convert kernels
// themselves live in transpose (NarrowStrided/WidenStrided) so the
// synchronous slab engine's float32 pipeline shares one implementation
// with this engine.

// narrow2DAsync enqueues a strided narrowing copy (complex128 →
// complex64) on the stream — the fused pack+convert+D2H of the
// single-precision path.
func narrow2DAsync(s *cuda.Stream, dst []complex64, dstStride int, src []complex128, srcStride, rowLen, nrows int) {
	s.Launch("narrow2d", func() {
		transpose.NarrowStrided(dst, dstStride, src, srcStride, rowLen, nrows)
	})
}
