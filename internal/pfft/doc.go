// Package pfft implements the distributed three-dimensional Fourier
// transforms of the paper on top of the in-process MPI runtime:
//
//   - SlabC2C: complex transforms on the 1D slab decomposition the new
//     GPU code adopts (one all-to-all per 3D transform).
//   - SlabReal: the DNS variant — real fields in physical space,
//     conjugate-symmetric half-spectra in Fourier space, with the
//     paper's y,z,x transform ordering so that nonlinear products are
//     formed on unit-stride real data.
//   - PencilReal: the same real transform on a Pr×Pc process grid,
//     bitwise identical to SlabReal and free of its P ≤ N ceiling.
//   - PencilC2C: complex transforms on the 2D pencil decomposition
//     used by the synchronous CPU baseline of Yeung et al. (two
//     all-to-alls, on row and column communicators).
//
// SlabReal and PencilReal are FFT passes around exchange.Stage, the one
// transpose-exchange of the code base; the tuned constructors share one
// trial loop (tunedReal).
//
// Layout conventions (x always fastest):
//
//	slab Fourier side:    [mz][ny][nx or nxh], z-distributed
//	slab physical side:   [my][nz][nx],        y-distributed
//	pencil layout A:      [mz][my][nx]  x complete (physical)
//	pencil layout B:      [mz][mx][ny]  y complete, y fastest
//	pencil layout C:      [my2][mx][nz] z complete, z fastest (Fourier)
package pfft
