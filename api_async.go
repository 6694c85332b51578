package repro

import (
	"time"

	"repro/internal/exchange"
	"repro/internal/grid"
	"repro/internal/pfft"
	"repro/internal/tuning"
)

// --- The paper's asynchronous engine ---------------------------------------

// AsyncOptions configures the batched asynchronous pipeline (pencil
// count, exchange granularity, devices per rank); AsyncOption values
// fill it in for NewAsync and NewTunedAsync.
type AsyncOptions = pfft.Options

// AsyncTransform is the Fig 4 batched asynchronous out-of-core engine:
// the one slab engine, whose np = 1 case is the synchronous slab
// transform (NewSlabTransform).
type AsyncTransform = pfft.SlabReal

// Granularity selects how much data each all-to-all exchange carries.
type Granularity = pfft.Granularity

// Exchange granularities (paper configurations A/B vs C).
const (
	PerPencil = pfft.PerPencil
	PerSlab   = pfft.PerSlab
)

// ExchangeStrategy selects how the y↔z transpose-exchange moves data:
// a zero-copy fused gather reading peer slabs in place, its chunked
// pairwise variant, or plan-time autotuning between them.
type ExchangeStrategy = exchange.Strategy

// Transpose-exchange strategies. ExchangeAuto (the zero value)
// microbenchmarks the concrete strategies at plan construction on the
// actual (N, P, workers) and pins the collectively-agreed winner.
const (
	ExchangeAuto    = exchange.Auto
	ExchangeFused   = exchange.Fused
	ExchangeChunked = exchange.ChunkedFused
	// ExchangeAT is the asynchrony-tolerant fused gather: epoch-tagged
	// publication with a bounded-staleness wait. Opted into explicitly
	// (WithBoundedStaleness) and never autotuned — it changes the
	// answer, not just the speed.
	ExchangeAT = exchange.AT
)

// ParseExchangeStrategy parses "auto", "fused", "chunked" or "at" (the
// -exchange flag vocabulary of cmd/dns).
func ParseExchangeStrategy(s string) (ExchangeStrategy, error) {
	return exchange.Parse(s)
}

// Decomposition selects how the 3D field is distributed over the P
// ranks: the slab layout (the zero value, P slabs of N/P planes, valid
// while P divides N), an explicit Pr×Pc pencil process grid (lifting
// the slab's P ≤ N scaling wall), or an autotuned choice among every
// valid layout.
type Decomposition = tuning.Decomp

// The named decompositions. DecompSlab is the zero value; DecompAuto
// asks a tuned constructor to measure every valid layout and keep the
// winner.
var (
	DecompSlab = tuning.DecompSlab
	DecompAuto = tuning.DecompAuto
)

// PencilDecomp is the pencil decomposition over a pr×pc process grid:
// pr row groups over y (z in spectral layout) and pc column groups
// over z (x in spectral layout). Valid when pr·pc = P, pr | N, pc | N
// and pc ≤ N/2+1.
func PencilDecomp(pr, pc int) Decomposition { return tuning.Pencil(pr, pc) }

// ParseDecomposition parses "slab", "auto", or an explicit "PRxPC"
// grid such as "2x4" (the -decomp flag vocabulary of cmd/dns).
func ParseDecomposition(s string) (Decomposition, error) {
	return tuning.ParseDecomp(s)
}

// AsyncOption customizes NewAsync.
type AsyncOption func(*AsyncOptions)

// WithNP sets the number of pencils each slab is divided into (Fig 3):
// groups of the slab's N/P planes, each the unit one per-pencil
// exchange carries. Pencils past N/P are empty and never exchanged.
func WithNP(n int) AsyncOption {
	return func(o *AsyncOptions) { o.NP = n }
}

// WithGranularity selects per-pencil (configurations A/B) or per-slab
// (configuration C) exchanges.
func WithGranularity(g Granularity) AsyncOption {
	return func(o *AsyncOptions) { o.Granularity = g }
}

// WithDevices sets the number of devices per MPI rank (Fig 5).
func WithDevices(d int) AsyncOption {
	return func(o *AsyncOptions) { o.NGPU = d }
}

// WithSingleComm stages all-to-all payloads through single-precision
// buffers, the paper's wire format (half the bytes, ~1e-7 relative
// rounding per transform).
func WithSingleComm() AsyncOption {
	return func(o *AsyncOptions) { o.SingleComm = true }
}

// WithWorkers sets the per-rank worker-team size (the paper's OpenMP
// threads per rank): batched FFT loops and host gather kernels
// split across n persistent workers, with bitwise-identical results
// for any n. Zero or one means serial.
func WithWorkers(n int) AsyncOption {
	return func(o *AsyncOptions) { o.Workers = n }
}

// WithExchangeStrategy pins the transpose-exchange strategy instead of
// autotuning it at plan construction. The fused and chunked gathers are
// bitwise identical; only the data path differs.
func WithExchangeStrategy(s ExchangeStrategy) AsyncOption {
	return func(o *AsyncOptions) { o.Exchange = s }
}

// WithBoundedStaleness runs the engine's transpose-exchanges in
// asynchrony-tolerant mode: a rank proceeds on peers' latest
// published slabs once they are within maxStale epochs, waiting at
// most deadline for them to publish the current epoch (deadline ≤ 0
// never waits past the hard bound). Stale slabs are site-matched —
// accepted only when they carry the same quantity from a whole
// number of steps earlier — so a bound below the engine's per-step
// exchange count behaves synchronously. This is the one place a run
// asks for asynchrony tolerance: a solver handed the engine
// (WithTransform) labels every transform call with its site and
// corrects for the staleness the engine absorbs.
func WithBoundedStaleness(maxStale int, deadline time.Duration) AsyncOption {
	return func(o *AsyncOptions) {
		o.Exchange = exchange.AT
		o.ATMaxStale = maxStale
		o.ATDeadline = deadline
	}
}

// TuneSpace enumerates the candidate whole-step configurations the
// autotuner searches: exchange strategies × transfer granularity ×
// pencil counts × worker-team sizes × wire precision. Empty dimensions
// default to numerics-preserving singletons (the engine's own
// configuration), so the default search only changes the data path,
// never the answer. Listing the precision dimension explicitly is how
// single-precision exchanges enter the search.
type TuneSpace = tuning.Space

// NewAsync builds the asynchronous engine for an N³ transform,
// configured by functional options:
//
//	tr := repro.NewAsync(c, 1024,
//	    repro.WithNP(4),
//	    repro.WithGranularity(repro.PerPencil),
//	    repro.WithDevices(2),
//	)
func NewAsync(c *Comm, n int, opts ...AsyncOption) *AsyncTransform {
	return pfft.NewAsyncSlabReal(c, n, asyncOptions(opts))
}

func asyncOptions(opts []AsyncOption) AsyncOptions {
	var o AsyncOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// tuneConfig is the tuned constructors' shared argument convention: a
// non-empty cacheDir persists the winner, a nil space searches the
// numerics-preserving default.
func tuneConfig(cacheDir string, space *TuneSpace) tuning.Config {
	var cfg tuning.Config
	if space != nil {
		cfg.Space = *space
	}
	if cacheDir != "" {
		cfg.Cache = tuning.Open(cacheDir)
	}
	return cfg
}

// NewTunedAsync builds the asynchronous engine through the whole-step
// autotuner, the opts giving the configuration the search starts from
// (and keeps on every dimension the space does not list): every
// candidate is timed with the collective barrier-fenced best-of-k
// trial protocol and the max-over-ranks winner is constructed. A
// non-empty cacheDir persists the winner so later constructions with
// the same (N, P, GOMAXPROCS, machine) key skip the trials; a nil
// space searches exchange strategies × both granularities. Collective.
func NewTunedAsync(c *Comm, n int, cacheDir string, space *TuneSpace, opts ...AsyncOption) *AsyncTransform {
	return pfft.NewAsyncSlabRealTuned(c, n, asyncOptions(opts), tuneConfig(cacheDir, space))
}

// NewSlabTransform is the synchronous slab transform, the Fig 2
// baseline: the one slab engine at np = 1, one exchange per slab, one
// device.
func NewSlabTransform(c *Comm, n int) *pfft.SlabReal {
	return pfft.NewSlabRealStrategy(c, n, 1, exchange.Auto)
}

// NewThreadedSlabTransform is the hybrid MPI+OpenMP-style transform
// with a worker team per rank.
func NewThreadedSlabTransform(c *Comm, n, threads int) *pfft.SlabReal {
	return pfft.NewSlabRealStrategy(c, n, threads, exchange.Auto)
}

// RealTransform is the distributed real-field transform pair on any
// decomposition: real physical fields in, conjugate-symmetric
// half-spectra out, 1/N³ normalization on the inverse, with
// bitwise-identical results for every valid Pr×Pc grid. It is the one
// transform engine, the plane-group program; the slab is its one-column
// grid, the only one a solver runs on.
type RealTransform = *pfft.SlabReal

// NewTunedTransform builds the real-field transform for decomposition
// d through the whole-step autotuner: DecompSlab searches exchange
// strategies on the slab engine, an explicit Pr×Pc grid searches them
// on that pencil grid, and DecompAuto makes the decomposition itself a
// tune dimension over every valid layout — the constructor that runs
// at P > N, where no slab layout exists. A non-empty cacheDir persists
// the winning configuration so later constructions with the same
// (engine, N, P, GOMAXPROCS, machine) key skip the trials; a nil space
// searches the numerics-preserving default. Collective.
func NewTunedTransform(c *Comm, n, workers int, d Decomposition, cacheDir string, space *TuneSpace) RealTransform {
	return pfft.NewRealTuned(c, n, workers, d, tuneConfig(cacheDir, space))
}

// Slab describes a rank's 1D-decomposition geometry.
type Slab = grid.Slab
