// Package pfft implements the distributed three-dimensional Fourier
// transforms of the paper on top of the in-process MPI runtime: the DNS
// transform pair — real fields in physical space, conjugate-symmetric
// half-spectra in Fourier space, with the paper's y,z,x transform
// ordering so that nonlinear products are formed on unit-stride real
// data — by two engines, one per decomposition:
//
//   - SlabReal, the one-column engine: the 1D slab decomposition the
//     new GPU code adopts, run as the batched asynchronous out-of-core
//     pipeline of Fig 4. The synchronous slab and the basic GPU
//     algorithm of Fig 2 are its np = 1, one-exchange-per-slab case
//     (NewSlabReal and its siblings); NewAsyncSlabReal takes the
//     pencil count, granularity and devices of the batched pipeline.
//     It is the solver's engine (spectral.Transform).
//   - Engine, the Pr×Pc pencil grid with Pc > 1: a second, column
//     exchange lifts the slab's P ≤ N ceiling (the FFTK-style 2-D
//     decomposition, the only option at P > N).
//
// Both run the plane passes of Passes around exchange.Stage, the one
// transpose-exchange of the code base, and every configuration of
// either is bitwise identical on the same field. NewRealTuned is the
// tuned constructor over decompositions (a build closure, the
// engines' runTrial as the exchange-only trial body, handed to
// tuning.Tune); NewAsyncSlabRealTuned is the one-column engine's own.
//
// The one-column engine works each rank's slab through in np pencils
// on two CUDA streams — one for compute, one for transfers — with
// events enforcing the per-pencil FFT → pack → all-to-all chain. The
// device of internal/cuda executes on host memory, so every kernel is
// the zero-copy kernel of §4.2: the FFT batches run in place on the
// host slab, there is no H2D stage and there are no device slots (the
// performance model of internal/core keeps charging for both).
// Construction compiles each region pass into a flat op program —
// prebuilt kernels and reusable events per (pencil, device) — and a
// transform replays it without allocating.
//
// A pencil is a plane group, splitRange(N/P, np): it only has to be
// complete along the axes its region transforms, and a z-plane of the
// Fourier slab holds whole y lines, a y-plane of the intermediate slab
// whole z and x lines. So two region passes per direction mirror the
// paper's y, z, x transform ordering, each running the plane passes
// over its groups at the band's full width:
//
//	Fourier→physical: [y FFTs on z-plane groups] → A2A →
//	                  [z FFT + c2r x FFT per y-plane, on y-plane groups]
//
// and the reverse for physical→Fourier. Exchange unit u is plane group
// u, and its exchange is the slab transpose over the group's planes: a
// transpose.SlabLayout Range under exchange.SlabKernels, one stage per
// unit. Under the zero-copy strategies it publishes the group's planes
// and every peer gathers them in place into its destination slab:
// straight from the slab on the double-precision wire, which packs
// nothing and leaves the transfer stream idle, from the planes a pack
// narrowed (the f32 bracket of Passes, widened again by the cells
// behind the exchange) on the single-precision wire. Staged runs the
// unit's stage with staged blocks: it packs the group's planes into
// compact blocks, exchanges the blocks and unpacks them. Every strategy
// so runs through one exchange.Stage.Run and one mpi.ExchangePlan.Do,
// where message fault injection reaches it. The all-to-all granularity
// is selectable: PerPencil starts a group's exchange as soon as it is
// ready, two groups behind the launch frontier, overlapping the later
// groups' compute (configurations A and B of the paper); PerSlab waits
// for the whole slab and runs one large blocking exchange
// (configuration C, the winner at scale, and the slab's).
//
// Truncate band-limits the pair to |k_i| ≤ kmax, which is how a
// dealiased solver's 2/3 rule reaches the FFT passes and the
// exchanges, through one band setter (Passes.SetBand): the y and z
// batches run at the rank's in-band width kb, the y pass skips C's
// out-of-band z-planes and the forward's stores +0 where the band
// ends, the x pass stops at the band's last bin, and the row exchange
// (every unit of the one-column engine) moves the kb columns of the
// in-band kz rows, its receiving side storing the zeros the z lines
// read. The full transform is the band with kb = Wc. Inside the band
// the output is bitwise the full transform's on a spectrum that is +0
// outside. On the one-column engine every cell is launched whatever the
// band and the geometry, so the Fig 4 launch and event order is
// independent of both; only an empty unit (np > N/P) is not exchanged.
//
// Layout conventions (x always fastest):
//
//	slab Fourier:         [mz][ny][nxh]  y complete
//	slab intermediate:    [my][nz][nxh]  z and x complete
//	slab physical:        [my][nz][nx]   real
//	pencil physical:      [my][mz][nx]   real, x complete
//	pencil X:             [my][mz][nxh]  x complete
//	pencil B:             [my][nz][wc]   z complete
//	pencil C (Fourier):   [mz2][ny][wc]  y complete
//
// The slab's arrays are the P×1 grid's, element for element.
package pfft
