// Package core implements the paper's primary contribution: the
// batched asynchronous out-of-core GPU algorithm for slab-decomposed
// 3D transforms (Fig 4). Each rank's slab is worked through in np
// pencils on two CUDA streams — one for compute, one for transfers —
// with events enforcing the per-pencil FFT → pack → all-to-all chain.
// The device of internal/cuda executes on host memory, so every kernel
// is the zero-copy kernel of §4.2: the FFT batches run in place on the
// host slab and the one copy left is the pack into the send buffer;
// there is no H2D stage and there are no device slots (the simulated
// performance model keeps charging for both). Construction compiles
// each region pass into a flat op program — prebuilt kernels and
// reusable events per (pencil, device) — and a transform replays it
// without allocating. Three region passes per direction mirror the
// paper's y, z, x transform ordering:
//
//	Fourier→physical: [y FFTs on x-split pencils] → pack/A2A/unpack →
//	                  [z FFTs on x-split pencils] →
//	                  [c2r x FFTs on z-split pencils]
//
// and the reverse for physical→Fourier. The all-to-all granularity is
// selectable: PerPencil starts a pencil's exchange as soon as its pack
// completes, two pencils behind the launch frontier — a non-blocking
// MPI_IALLTOALL on the staged wire, the unit's in-place gather under
// the zero-copy strategies — overlapping the later pencils' compute
// (configurations A and B of the paper); PerSlab waits for the whole
// slab and runs one large blocking exchange (configuration C, the
// winner at scale).
//
// Truncate band-limits the pair to |k_i| ≤ kmax (a dealiased solver
// calls it with the 2/3 rule) by recompiling the regions: each
// (pencil, device) line kernel runs only its in-band columns, the y
// kernels skip out-of-band z-planes and the forward's store the band's
// zeros, the x regions stop at the band's last bin, and the packs and
// exchange units move the in-band columns of the in-band kz rows only.
// A cell left with no column keeps its (now empty) kernels so the Fig 4
// launch and event order is independent of the band; a unit left with
// none is not exchanged at all.
//
// AsyncSlabReal implements spectral.Transform, so the full DNS can run
// on the asynchronous pipeline; its results are bit-compatible with
// the synchronous pfft.SlabReal reference. The companion performance
// model (perfmodel.go) replays the identical schedule on the
// discrete-event simulator with Summit's calibrated rates to reproduce
// the paper's Tables 3–4 and Figs 9–10.
package core
