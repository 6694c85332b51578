// Package core implements the paper's primary contribution: the
// batched asynchronous out-of-core GPU algorithm for slab-decomposed
// 3D transforms (Fig 4). Each rank's slab is worked through in np
// pencils on two CUDA streams — one for compute, one for transfers —
// with events enforcing the per-pencil FFT → pack → all-to-all chain.
// The device of internal/cuda executes on host memory, so every kernel
// is the zero-copy kernel of §4.2: the FFT batches run in place on the
// host slab, there is no H2D stage and there are no device slots (the
// simulated performance model keeps charging for both). Construction
// compiles each region pass into a flat op program — prebuilt kernels
// and reusable events per (pencil, device) — and a transform replays
// it without allocating.
//
// A pencil is a plane group, splitRange(N/P, np): it only has to be
// complete along the axes its region transforms, and a z-plane of the
// Fourier slab holds whole y lines, a y-plane of the intermediate slab
// whole z and x lines. So two region passes per direction mirror the
// paper's y, z, x transform ordering, each running the slab engine's
// own plane passes (pfft.Passes) over its groups at the band's full
// width:
//
//	Fourier→physical: [y FFTs on z-plane groups] → A2A →
//	                  [z FFT + c2r x FFT per y-plane, on y-plane groups]
//
// and the reverse for physical→Fourier. Exchange unit u is plane group
// u, and its exchange is the slab engine's own transpose over the
// group's planes: a transpose.SlabLayout Range under
// exchange.SlabKernels, one stage per unit. Under the zero-copy
// strategies it publishes the group's planes and every peer gathers
// them in place into its destination slab: straight from the slab on
// the double-precision wire, which packs nothing and leaves the
// transfer stream idle, from the planes a pack narrowed (pfft.Passes'
// f32 bracket, widened again by the cells behind the exchange) on the
// single-precision wire. Staged runs the unit's stage with staged
// blocks: it packs the group's planes into compact blocks, exchanges
// the blocks and unpacks them. Every strategy so runs through one
// exchange.Stage.Run and one mpi.ExchangePlan.Do, where message fault
// injection reaches it. The all-to-all granularity is selectable: PerPencil starts a group's exchange as
// soon as it is ready, two groups behind the launch frontier,
// overlapping the later groups' compute (configurations A and B of the
// paper); PerSlab waits for the whole slab and runs one large blocking
// exchange (configuration C, the winner at scale).
//
// Truncate band-limits the pair to |k_i| ≤ kmax (a dealiased solver
// calls it with the 2/3 rule) by recompiling the regions: every batch
// runs the in-band columns only, the y passes skip out-of-band z-planes
// and the forward's store the band's zeros, the x passes stop at the
// band's last bin, and the packs and exchange units move the in-band
// columns of the in-band kz rows only. Every cell is launched whatever
// the band and the geometry, so the Fig 4 launch and event order is
// independent of both; only an empty unit (np > N/P) is not exchanged.
//
// AsyncSlabReal implements spectral.Transform, so the full DNS can run
// on the asynchronous pipeline; its results are bit-compatible with
// the synchronous pfft.SlabReal reference. The companion performance
// model (perfmodel.go) replays the identical schedule on the
// discrete-event simulator with Summit's calibrated rates to reproduce
// the paper's Tables 3–4 and Figs 9–10.
package core
