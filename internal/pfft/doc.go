// Package pfft implements the distributed three-dimensional Fourier
// transforms of the paper on top of the in-process MPI runtime: the DNS
// transform pair — real fields in physical space, conjugate-symmetric
// half-spectra in Fourier space, with the paper's y,z,x transform
// ordering so that nonlinear products are formed on unit-stride real
// data — by one engine, SlabReal: the batched asynchronous out-of-core
// pipeline of Fig 4, over a Pr×Pc process grid.
//
// The slab decomposition the new GPU code adopts is the one-column grid
// (Pc = 1), the solver's (spectral.Transform). The synchronous slab and
// the basic GPU algorithm of Fig 2 are its np = 1, one-exchange-per-slab
// case (NewSlabRealStrategy); NewAsyncSlabReal takes the pencil count,
// granularity and devices of the batched pipeline, and the wire options:
// SingleComm, and Exchange: exchange.AT with its staleness bound and
// deadline — the one place asynchrony tolerance is asked for (a solver
// handed an AT engine stamps its site labels and corrects for the
// staleness it drains). On a
// grid with Pc > 1 (NewPencilReal) a second, column exchange lifts the
// slab's P ≤ N ceiling: the FFTK-style 2-D decomposition, the only
// option at P > N. Every grid and every configuration is bitwise
// identical on the same field. NewRealTuned is the tuned constructor
// over decompositions (a build closure, the engine's runTrial as the
// exchange-only trial body, handed to tuning.Tune); NewAsyncSlabRealTuned
// is the one-column pipeline's own.
//
// The engine works each rank's pencil through in np plane groups on two
// CUDA streams — one for compute, one for transfers — with events
// enforcing the per-group FFT → pack → all-to-all chain. The device of
// internal/cuda executes on host memory, so every kernel is the
// zero-copy kernel of §4.2: the FFT batches run in place on the host
// slab, there is no H2D stage and there are no device slots (the
// performance model of internal/core keeps charging for both).
// Construction compiles each region pass into a flat op program —
// prebuilt kernels and reusable events per (group, device) — and a
// transform replays it without allocating. Each stream's ring holds the
// most entries one region enqueues on it, so the host never blocks on a
// launch.
//
// A plane group is splitRange(N/Pr, np): it only has to be complete
// along the axes its region transforms, and a z-plane of the Fourier
// pencil C holds whole y lines, a y-plane of B whole z lines and a
// y-plane of X whole x lines. So the region passes per direction mirror
// the paper's y, z, x transform ordering, each running the plane passes
// of Passes over its groups at the band's full width:
//
//	Fourier→physical: [y FFTs on z-plane groups of C] → row A2A →
//	                  [z FFT + c2r x FFT per y-plane of B]        (Pc = 1)
//	                  [z FFT per y-plane of B] → column A2A →
//	                  [c2r x FFT per y-plane of X]                (Pc > 1)
//
// and the reverse for physical→Fourier. On one column B is X, so a
// y-plane's z and x passes run back to back while it is in cache. On a
// grid with Pc > 1, X has no storage of its own: it is the head of the
// caller's Fourier buffer for the length of each call, since each
// direction is done with one of C and X before it writes the other and
// the exit barrier of the exchange between them orders that across
// ranks. FourierLen is so the length a caller allocates, as FFTW-MPI's
// alloc_local: max(CLen, PadXLen) there, CLen on one column; the tail
// past C holds no mode (the inverse never reads it, the forward leaves
// +0 there). A rank holds its physical pencil, that buffer, B and the
// plans.
//
// Row exchange unit u is plane group u, and its exchange is the slab
// transpose over the group's planes with Nxh := Wc: a
// transpose.SlabLayout Range under exchange.SlabKernels, one stage per
// unit over the row communicator. Every strategy publishes the group's
// planes and every peer gathers them in place into its destination:
// straight from the pencil on the double-precision wire, which packs
// nothing and leaves the transfer stream idle, from the planes a pack
// narrowed (the f32 bracket of Passes, widened again by the cells
// behind the exchange) on the single-precision wire. The column
// exchange is one stage over the column communicator, run once per
// direction over the whole pencil from the column kernels of
// internal/transpose. Every strategy so runs through one
// exchange.Stage.Run and one mpi.ExchangePlan.Do, where message fault
// injection reaches it. The row exchange's
// granularity is selectable: PerPencil starts a group's exchange as
// soon as it is ready, two groups behind the launch frontier,
// overlapping the later groups' compute (configurations A and B of the
// paper); PerSlab waits for the whole pencil and runs one large
// blocking exchange (configuration C, the winner at scale, and the
// slab's). The single-precision wire and the asynchrony-tolerant
// exchange run on one column only.
//
// Truncate band-limits the pair to |k_i| ≤ kmax, which is how a
// dealiased solver's 2/3 rule reaches the FFT passes and the
// exchanges, through one band setter (Passes.SetBand): the y and z
// batches run at the rank's in-band width kb, the y pass skips C's
// out-of-band z-planes and the forward's stores +0 where the band
// ends, the x pass stops at the band's last bin, and the row exchange
// moves the kb columns of the in-band kz rows, its receiving side
// storing the zeros the z lines read; a column group with kb = 0 skips
// it. The column exchange moves whole pencils. The full transform is
// the band with kb = Wc. Inside the band the output is bitwise the full
// transform's on a spectrum that is +0 outside. Every cell is launched
// whatever the band and the geometry, so the Fig 4 launch and event
// order is independent of both; only an empty unit (np > N/Pr) is not
// exchanged.
//
// Layout conventions (x always fastest):
//
//	slab Fourier:         [mz][ny][nxh]  y complete
//	slab intermediate:    [my][nz][nxh]  z and x complete
//	slab physical:        [my][nz][nx]   real
//	pencil physical:      [my][mz][nx]   real, x complete
//	pencil X:             [my][mz][nxh]  x complete, the head of the
//	                                     caller's Fourier buffer
//	pencil B:             [my][nz][wc]   z complete
//	pencil C (Fourier):   [mz2][ny][wc]  y complete
//
// The slab's arrays are the P×1 grid's, element for element.
package pfft
