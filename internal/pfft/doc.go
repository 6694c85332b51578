// Package pfft implements the distributed three-dimensional Fourier
// transforms of the paper on top of the in-process MPI runtime:
//
//   - Engine: the DNS transform — real fields in physical space,
//     conjugate-symmetric half-spectra in Fourier space, with the
//     paper's y,z,x transform ordering so that nonlinear products are
//     formed on unit-stride real data — on a Pr×Pc process grid. The
//     1D slab decomposition the new GPU code adopts is its one-column
//     grid (one all-to-all per transform; the type's other name is
//     SlabReal); Pc > 1 adds the second, column exchange and lifts the
//     slab's P ≤ N ceiling. Every grid is bitwise identical.
//
// Engine is FFT passes around exchange.Stage, the one transpose-exchange
// of the code base. NewRealTuned is its tuned constructor (decomposition
// × strategy × workers × wire precision): a build closure, runTrial as
// the exchange-only trial body and a collapse rule, handed to
// tuning.Tune, the trial loop it shares with the batched engine.
//
// Engine.Truncate band-limits the pair to |k_i| ≤ kmax, which is how a
// dealiased solver's 2/3 rule reaches the FFT passes and the row
// exchange: the y and z batches run at the rank's in-band width kb,
// the y pass skips C's out-of-band z-planes and the forward's stores +0
// where the band ends, the x pass stops at the band's last bin, and the
// row exchange moves the kb columns of the in-band kz rows, its
// receiving side storing the zeros the z lines read. The full
// transform is the band with kb = Wc. Inside the band the output is
// bitwise the full transform's on a spectrum that is +0 outside.
//
// Layout conventions (x always fastest):
//
//	engine physical:      [my][mz][nx]   real, x complete
//	engine X:             [my][mz][nxh]  x complete
//	engine B:             [my][nz][wc]   z complete (= X when Pc = 1)
//	engine C (Fourier):   [mz2][ny][wc]  y complete
//	slab (Pc = 1):        [mz][ny][nxh] Fourier, [my][nz][nx] physical
package pfft
