// Command bench runs the repository's pinned performance workloads and
// emits a machine-readable baseline (BENCH_step.json) with ns/op,
// allocs/op and bytes/op per workload. The committed baseline plus the
// -baseline/-check flags turn it into a regression gate: CI re-runs
// the workloads and fails when a workload slows down beyond the
// tolerance or starts allocating on a previously allocation-free path.
//
// Workloads (fixed geometry so numbers are comparable across commits):
//
//   - slab_fwd_inv_n64_p4 / n128: distributed forward+inverse real
//     transform on the synchronous worker-team slab engine;
//   - dns_rk2_step_n32_p2: one full Navier–Stokes RK2 step;
//   - step_forced_n64 / step_scalar_n64: one RK2 step of the
//     stochastically forced system and of NS + two passive scalars
//     with rotation (the registry's non-trivial equation sets);
//   - barrier_skew_p2 / barrier_skew_p4: a barrier between unequal
//     shares of real work — every rank sweeps a 1 MiB array, rank 1
//     thirty percent more of it, then all meet; ns/op on the slow rank.
//     What a waiting rank pays to get going again shows up here as time
//     above the sweep (the benchmark's mpi.barrier_us, a tight loop of
//     empty barriers, cannot see it: there the idle processor is still
//     spinning in the scheduler when the release comes). At P = 2 on two
//     threads the ranks poll for each other; at P = 4 they outnumber
//     the threads and park;
//   - exchange_{fused,chunked}_n{64,128}: the isolated y→z
//     transpose-exchange at P=4 under each pinned strategy (the
//     zero-copy gather in one pass and in pairwise rounds);
//   - step_at_n64 / exchange_at_n64: the asynchrony-tolerant step and
//     isolated bounded exchange — the epoch-tagged DoBounded path plus
//     the staleness-weighted correction, pinned allocation-free;
//   - slab_f32_fwd_inv_n64_p4 / n128: the slab transform with
//     single-precision transpose-exchanges (complex64 wire format,
//     half the exchanged bytes);
//   - slab_tuned_n64_p4: the slab transform constructed through the
//     whole-step autotuner (trials at construction, outside the timed
//     window), pinning the tuned configuration allocation-free;
//   - pencil_fwd_inv_n64_p4 / p8, pencil_fwd_inv_n128_p4: the
//     forward+inverse transform on 2×2 and 2×4 process grids (the last
//     is the repository benchmark's xform_pencil_n128 geometry),
//     pinning the two-transpose dataflow — column and row exchanges
//     through per-sub-communicator plans — allocation-free at steady
//     state; read n64_p4 against slab_fwd_inv_n64_p4 for what the
//     second exchange costs;
//   - slab_band_fwd_inv_n64_p2 / async_band_fwd_inv_n64_p2: the
//     forward+inverse pair band-limited to the 2/3 rule
//     (Truncate(21)) as every dealiased step runs it, on the
//     synchronous and the batched engine at the repository
//     benchmark's geometry (P = 2, chunked gather; np = 4 pencils) —
//     read against slab_fwd_inv_n64_p2 / async_fwd_inv_n64_p2, the
//     full pair at the same geometry, for what the skipped y and z
//     lines are worth;
//   - fft_c2c_strided_n48 / n64, fft_c2c_contig_n128, fft_r2c_n48 /
//     n64: the 1-D kernels alone, one plane of lines per op — complex
//     lines strided by N/2+1 (the y and z passes, plane form), unit-
//     stride complex lines (line form) and
//     real lines — with GFlop/s at the nominal 5·n·log₂n per line;
//   - rhs_ns_n64_p2: one full NS RK2 step on a transform stub that only
//     copies, so what is timed is the solver's own arithmetic — products,
//     divergence accumulation, projection, stage sweeps — and
//     if_sweep_n64: one RK2 stage sweep alone. Both report GB/s per rank
//     against the bytes the arithmetic must move, and that rate as a
//     fraction of a contiguous copy measured in the same run.
//
// Besides the -baseline/-check gate, `bench -compare old.json
// new.json` diffs two measurement files row by row (speedup per
// workload) and exits 1 when any shared row regresses beyond
// -tolerance — the CI form of a before/after experiment. A workload
// present in the old file but absent from the new one exits 2 (the
// offending row is printed as FAIL): a silently dropped or renamed
// workload must not read as a pass.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/exchange"
	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/pfft"
	"repro/internal/spectral"
	"repro/internal/tuning"
)

// Result is one workload's measurement.
type Result struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	GFlops      float64 `json:"gflops,omitempty"` // kernel rows only
	// Bandwidth rows only: nominal bytes read plus written per second
	// per rank, and that rate over what the same run's contiguous copy
	// reads plus writes (above 1 = the working set is cache-resident
	// where the 64 MiB copy is not).
	GBPerS       float64 `json:"gb_per_s,omitempty"`
	FracOfMemcpy float64 `json:"frac_of_memcpy,omitempty"`
}

// File is the BENCH_step.json schema.
type File struct {
	Schema    int      `json:"schema"`
	GoVersion string   `json:"go_version"`
	Quick     bool     `json:"quick"`
	Workers   int      `json:"workers"`
	Results   []Result `json:"results"`
}

// sample is the raw loop measurement a workload reports: wall time and
// the heap allocations attributed to the timed iterations.
type sample struct {
	ns     int64
	allocs int64
	bytes  int64
	flop   float64 // nominal flop count of the timed window; 0 = not a kernel row
	moved  float64 // nominal bytes one rank moves in the timed window; 0 = not a bandwidth row
}

func init() {
	// Record every allocation in the memory profile so timeLoop can
	// attribute the timed window's allocations exactly (see below).
	runtime.MemProfileRate = 1
}

// profPre/profPost are timeLoop's reusable snapshot buffers. They are
// sized before the pre-window snapshot so the snapshots themselves
// never allocate inside the attributed window.
var profPre, profPost []runtime.MemProfileRecord

// timeLoop runs f iters times after warm warmup calls and reports wall
// time plus the allocations attributed to the timed window.
//
// Allocations are measured by diffing memory-profile snapshots (at
// MemProfileRate=1 every allocation is sampled) rather than MemStats
// deltas: process-wide Mallocs counts the runtime's own post-GC
// rebuilds of its per-P sudog/defer/timer caches, a constant ~10
// allocations of background noise in a many-goroutine world that no
// amount of settling removes deterministically. The profile diff sees
// only real allocation sites with Go-level stacks, so a clean hot path
// measures exactly zero and the gate needs no slack. Profile samples
// publish at GC boundaries, hence the forced GCs fencing each snapshot.
func timeLoop(iters, warm int, f func()) sample {
	for i := 0; i < warm; i++ {
		f()
	}
	if n, _ := runtime.MemProfile(nil, true); len(profPre) < n+4096 {
		profPre = make([]runtime.MemProfileRecord, n+8192)
		profPost = make([]runtime.MemProfileRecord, n+8192)
	}
	runtime.GC() // publish samples recorded before the window
	runtime.GC()
	npre, _ := runtime.MemProfile(profPre, true)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	el := time.Since(t0)
	runtime.GC() // publish the window's samples
	runtime.GC()
	npost, ok := runtime.MemProfile(profPost, true)
	if !ok {
		// More new allocation sites than the slack allowed for; grow and
		// retake (the extra sites are still post-window-flushed state).
		profPost = make([]runtime.MemProfileRecord, npost+8192)
		npost, _ = runtime.MemProfile(profPost, true)
	}
	allocs, bytes := profDelta(profPre[:npre], profPost[:npost])
	return sample{ns: el.Nanoseconds(), allocs: allocs, bytes: bytes}
}

// profDelta sums the growth in allocated objects and bytes between two
// memory-profile snapshots, accumulated per call stack (a stack can
// span several size-class buckets).
func profDelta(pre, post []runtime.MemProfileRecord) (objs, bytes int64) {
	type cum struct{ objs, bytes int64 }
	acc := func(recs []runtime.MemProfileRecord) map[[32]uintptr]cum {
		m := make(map[[32]uintptr]cum, len(recs))
		for _, r := range recs {
			c := m[r.Stack0]
			c.objs += r.AllocObjects
			c.bytes += r.AllocBytes
			m[r.Stack0] = c
		}
		return m
	}
	base := acc(pre)
	trace := os.Getenv("BENCH_TRACE_ALLOCS") != ""
	for k, c := range acc(post) {
		b := base[k]
		if d := c.objs - b.objs; d > 0 {
			if runtimeHousekeeping(k) {
				// Background runtime housekeeping (e.g. the scavenger
				// growing its timer heap) — not attributable to any
				// workload code.
				continue
			}
			objs += d
			bytes += c.bytes - b.bytes
			if trace {
				fmt.Printf("-- %d window alloc(s), %d B:\n", d, c.bytes-b.bytes)
				n := 0
				for n < len(k) && k[n] != 0 {
					n++
				}
				frames := runtime.CallersFrames(k[:n])
				for {
					fr, more := frames.Next()
					fmt.Printf("   %s (%s:%d)\n", fr.Function, fr.File, fr.Line)
					if !more {
						break
					}
				}
			}
		}
	}
	return objs, bytes
}

// runtimeHousekeeping reports whether a profile stack is the runtime's
// own housekeeping rather than an allocation by workload code: either
// every frame is a runtime-internal function (one of the runtime's
// background goroutines; workload code always has a non-runtime frame
// on its stack), or the allocation is a refill of the per-P sudog
// cache — the forced GCs fencing the window empty that cache, so the
// first goroutine to block in a barrier afterwards allocates a sudog
// whichever workload is running (on a 2-CPU box with 4–8 ranks that
// hit some row of nearly every run).
func runtimeHousekeeping(k [32]uintptr) bool {
	n := 0
	for n < len(k) && k[n] != 0 {
		n++
	}
	frames := runtime.CallersFrames(k[:n])
	only := true
	for {
		fr, more := frames.Next()
		if fr.Function == "runtime.acquireSudog" {
			return true
		}
		if fr.Function != "" && !strings.HasPrefix(fr.Function, "runtime.") {
			only = false
		}
		if !more {
			return only
		}
	}
}

type workload struct {
	name        string
	full, quick int
	// hotpath marks workloads that drive //psdns:hotpath-annotated
	// code paths. For these, allocs/op beyond the slack fails the run
	// outright — no baseline needed — so the dynamic measurement
	// cross-validates what psdnslint enforces statically.
	hotpath bool
	run     func(iters, workers int) sample
}

// slabTransform measures one forward+inverse cycle of the synchronous
// worker-team slab transform at fixed N and P. Rank 0 samples; peers
// run the same collective loop (their allocations are part of the
// process-wide measurement, which at steady state is zero anyway).
func slabTransform(n, p int) func(iters, workers int) sample {
	return transformPair(p, func(c *mpi.Comm, workers int) pairEngine {
		return pfft.NewSlabRealStrategy(c, n, workers, exchange.Auto)
	})
}

// slabOptions are the slab's options (np 1, one exchange per slab, one
// device) at a team of workers, for the wire variants NewAsyncSlabReal
// builds.
func slabOptions(workers int) pfft.Options {
	return pfft.Options{NP: 1, Granularity: pfft.PerSlab, NGPU: 1, Workers: workers}
}

// slabTransformSingle is slabTransform on the single-precision-wire
// engine: FFTs in float64, transpose-exchanges through complex64.
func slabTransformSingle(n, p int) func(iters, workers int) sample {
	return transformPair(p, func(c *mpi.Comm, workers int) pairEngine {
		opt := slabOptions(workers)
		opt.SingleComm = true
		return pfft.NewAsyncSlabReal(c, n, opt)
	})
}

// slabTransformTuned is slabTransform on an engine constructed through
// the whole-step autotuner (default numerics-preserving space, no
// cache). The trials run at construction, outside the timed window;
// the row pins the tuned configuration's steady state.
func slabTransformTuned(n, p int) func(iters, workers int) sample {
	return transformPair(p, func(c *mpi.Comm, workers int) pairEngine {
		return pfft.NewRealTuned(c, n, workers, tuning.DecompSlab, tuning.Config{})
	})
}

// pencilTransform measures one forward+inverse cycle of the transform
// engine at fixed N over a Pr×Pc process grid, pinning the
// steady state of the two-transpose dataflow (column and row
// exchanges both on the chunked zero-copy gather). Rank 0 samples;
// peers run the same collective loop.
func pencilTransform(n, pr, pc int) func(iters, workers int) sample {
	return transformPair(pr*pc, func(c *mpi.Comm, workers int) pairEngine {
		row, col := c.CartGrid(pr, pc)
		return pfft.NewPencilReal(col, row, n, workers, exchange.Both(exchange.ChunkedFused))
	})
}

// slabBand is the slab cycle on the chunked zero-copy gather (the
// strategy the repository benchmark pins), band-limited to kmax: −1 is
// the full transform, the row a band row is read against.
func slabBand(n, p, kmax int) func(iters, workers int) sample {
	return transformPair(p, func(c *mpi.Comm, workers int) pairEngine {
		f := pfft.NewSlabRealStrategy(c, n, workers, exchange.ChunkedFused)
		f.Truncate(kmax)
		return f
	})
}

// asyncBand is the same cycle on the paper's batched asynchronous
// engine, band-limited to kmax (−1: full).
func asyncBand(n, p, np, kmax int) func(iters, workers int) sample {
	return transformPair(p, func(c *mpi.Comm, workers int) pairEngine {
		a := newBenchAsync(c, n, np, workers)
		a.Truncate(kmax)
		return a
	})
}

// newBenchAsync builds the asynchronous engine in the repository
// benchmark's configuration: np pencils, per-pencil granularity, one
// device, the chunked zero-copy gather.
func newBenchAsync(c *mpi.Comm, n, np, workers int) *pfft.SlabReal {
	return pfft.NewAsyncSlabReal(c, n, pfft.Options{
		NP: np, Granularity: pfft.PerPencil, Workers: workers, Exchange: exchange.ChunkedFused,
	})
}

// pairEngine is what a transform-pair row needs of an engine.
type pairEngine interface {
	PhysicalToFourier(four []complex128, phys []float64)
	FourierToPhysical(phys []float64, four []complex128)
	FourierLen() int
	PhysicalLen() int
	Close()
}

// transformPair times one forward+inverse cycle of the engine build
// constructs on every rank.
func transformPair(p int, build func(c *mpi.Comm, workers int) pairEngine) func(iters, workers int) sample {
	return func(iters, workers int) sample {
		var s sample
		mpi.Run(p, func(c *mpi.Comm) {
			f := build(c, workers)
			defer f.Close()
			four := make([]complex128, f.FourierLen())
			phys := make([]float64, f.PhysicalLen())
			for i := range phys {
				phys[i] = float64(i%17) * 0.5
			}
			cycle := func() {
				f.PhysicalToFourier(four, phys)
				f.FourierToPhysical(phys, four)
			}
			c.Barrier()
			if c.Rank() == 0 {
				s = timeLoop(iters, 2, cycle)
			} else {
				for i := 0; i < iters+2; i++ {
					cycle()
				}
			}
			// Hold every rank until measurement ends so teardown
			// allocations can't publish into the window's profile flush.
			c.Barrier()
		})
		return s
	}
}

// dnsStep measures one RK2 step of the solver the options select
// (plain NS with none), so the registry's richer equation sets (forcing
// controller, scalar advection, Coriolis) are pinned against allocation
// and time regressions just like the plain NS step.
func dnsStep(n, p int, opts ...spectral.Option) func(iters, workers int) sample {
	return dnsStepOn(func(c *mpi.Comm, workers int) stepEngine {
		return pfft.NewSlabRealStrategy(c, n, workers, exchange.Auto)
	}, n, p, opts...)
}

// asyncStep is dnsStep with the batched asynchronous engine under the
// solver, in the repository benchmark's configuration.
func asyncStep(n, p, np int) func(iters, workers int) sample {
	return dnsStepOn(func(c *mpi.Comm, workers int) stepEngine {
		return newBenchAsync(c, n, np, workers)
	}, n, p)
}

// stepEngine is a transform the solver can step on and the row can
// close.
type stepEngine interface {
	spectral.Transform
	Close()
}

func dnsStepOn(build func(c *mpi.Comm, workers int) stepEngine, n, p int, opts ...spectral.Option) func(iters, workers int) sample {
	return solverOp(build, (*spectral.Solver).Step, n, p, opts...)
}

// solverOp times op(solver, 1e-4) — a step, or a piece of one — on an
// RK2 solver over the engine build constructs.
func solverOp(build func(c *mpi.Comm, workers int) stepEngine, op func(*spectral.Solver, float64), n, p int, opts ...spectral.Option) func(iters, workers int) sample {
	return func(iters, workers int) sample {
		var s sample
		mpi.Run(p, func(c *mpi.Comm) {
			tr := build(c, workers)
			defer tr.Close()
			all := append([]spectral.Option{
				spectral.WithNu(0.01),
				spectral.WithScheme(spectral.RK2),
				spectral.WithDealias(spectral.Dealias23),
				spectral.WithTransform(tr),
			}, opts...)
			sol := spectral.New(c, n, all...)
			defer sol.Close()
			sol.SetRandomIsotropic(3, 0.5, 1)
			for f := 3; f < sol.Fields(); f++ {
				sol.SetFieldBlob(f, 2.5, 0.5, int64(40+f))
			}
			step := func() { op(sol, 1e-4) }
			c.Barrier()
			if c.Rank() == 0 {
				s = timeLoop(iters, 2, step)
			} else {
				for i := 0; i < iters+2; i++ {
					step()
				}
			}
			// Hold every rank until measurement ends so teardown
			// allocations can't publish into the window's profile flush.
			c.Barrier()
		})
		return s
	}
}

// dnsStepAT measures one asynchrony-tolerant RK2 step: every
// transpose runs through the epoch-tagged bounded exchange and the
// stepper's staleness bookkeeping runs each stage. With no straggler
// the arithmetic is identical to the synchronous step, so this pins
// the pure overhead of the AT machinery — and, being hotpath-marked,
// that DoBounded and the correction stay allocation-free.
func dnsStepAT(n, p, maxStale int) func(iters, workers int) sample {
	return func(iters, workers int) sample {
		var s sample
		mpi.Run(p, func(c *mpi.Comm) {
			opt := slabOptions(workers)
			opt.Exchange, opt.ATMaxStale, opt.ATDeadline = exchange.AT, maxStale, 2*time.Second
			tr := pfft.NewAsyncSlabReal(c, n, opt)
			defer tr.Close()
			sol := spectral.New(c, n,
				spectral.WithNu(0.01),
				spectral.WithScheme(spectral.RK2),
				spectral.WithDealias(spectral.Dealias23),
				spectral.WithTransform(tr),
			)
			defer sol.Close()
			sol.SetRandomIsotropic(3, 0.5, 1)
			step := func() { sol.Step(1e-4) }
			c.Barrier()
			if c.Rank() == 0 {
				s = timeLoop(iters, 2, step)
			} else {
				for i := 0; i < iters+2; i++ {
					step()
				}
			}
			// Hold every rank until measurement ends so teardown
			// allocations can't publish into the window's profile flush.
			c.Barrier()
		})
		return s
	}
}

// barrierSkew measures a barrier that ranks reach at different times
// because they did different amounts of work, as the exchanges of a
// step do: every rank sweeps a 1 MiB array (the work has to touch
// memory — a peer that only spins on the clock leaves the waiting
// rank's processor warm and hides most of the wake-up), rank 1 sweeps
// 30 % more, then all meet. Rank 1 samples: it never waits for lack of
// work, so every nanosecond above its own sweep is a peer that was
// released late from the barrier before and so arrived late at this one.
func barrierSkew(p int) func(iters, workers int) sample {
	return func(iters, _ int) sample {
		var s sample
		mpi.Run(p, func(c *mpi.Comm) {
			buf := make([]float64, 1<<17)
			n := len(buf)
			if c.Rank() == 1 {
				n += n * 3 / 10
			}
			op := func() {
				for j := 0; j < n; j++ {
					buf[j&(len(buf)-1)] += 1
				}
				c.Barrier()
			}
			c.Barrier()
			if c.Rank() == 1 {
				s = timeLoop(iters, 2, op)
			} else {
				for i := 0; i < iters+2; i++ {
					op()
				}
			}
			// Hold every rank until measurement ends so teardown
			// allocations can't publish into the window's profile flush.
			c.Barrier()
		})
		return s
	}
}

// exchangeYZ measures the isolated y→z transpose-exchange of one
// Fourier slab under a pinned strategy: every strategy goes through
// the zero-copy ExchangePlan gather. Same measurement discipline as
// slabTransform (rank 0 samples, peers run the collective loop).
func exchangeYZ(n, p int, st exchange.Strategy) func(iters, workers int) sample {
	return func(iters, workers int) sample {
		var s sample
		mpi.Run(p, func(c *mpi.Comm) {
			opt := slabOptions(workers)
			opt.Exchange = st
			if st == exchange.AT {
				opt.ATMaxStale, opt.ATDeadline = 1, 2*time.Second
			}
			f := pfft.NewAsyncSlabReal(c, n, opt)
			defer f.Close()
			four := make([]complex128, f.FourierLen())
			for i := range four {
				four[i] = complex(float64(i%17)*0.5, 1)
			}
			op := func() { f.ExchangeYZ(four) }
			c.Barrier()
			if c.Rank() == 0 {
				s = timeLoop(iters, 2, op)
			} else {
				for i := 0; i < iters+2; i++ {
					op()
				}
			}
			// Hold every rank until measurement ends so teardown
			// allocations can't publish into the window's profile flush.
			c.Barrier()
		})
		return s
	}
}

// fftKernel times alternating fwd and inv ops, each one plane of
// `lines` 1-D transforms of length n. Alternating keeps the data from
// overflowing or decaying into denormals: a forward-only or
// inverse-only loop ends up timing the FPU's slow path, not the
// kernel. The flop count is the nominal 5·n·log₂n per line, real lines
// included.
func fftKernel(iters, n, lines int, fwd, inv func()) sample {
	forward := true
	s := timeLoop(iters, 2, func() {
		if forward {
			fwd()
		} else {
			inv()
		}
		forward = !forward
	})
	s.flop = float64(iters) * float64(lines) * 5 * float64(n) * math.Log2(float64(n))
	return s
}

// fftC2C is fftKernel on the nxh = n/2+1 complex lines of one
// half-spectrum plane, in place: strided by nxh with the lines adjacent
// (the y and z passes of every engine, plane form) or back to back at
// unit stride (line form).
func fftC2C(n int, strided bool) func(iters, workers int) sample {
	return func(iters, _ int) sample {
		nxh := n/2 + 1
		b := fft.NewContiguousBatch(n, nxh)
		if strided {
			b = fft.NewBatch(n, nxh, nxh, 1, nxh, 1)
		}
		defer b.Release()
		buf := make([]complex128, n*nxh)
		for i := range buf {
			buf[i] = complex(float64(i%13), float64(i%7))
		}
		return fftKernel(iters, n, nxh, func() { b.Forward(buf, buf) }, func() { b.Inverse(buf, buf) })
	}
}

// fftR2C is fftKernel on the n real x-lines of one physical plane.
func fftR2C(n int) func(iters, workers int) sample {
	return func(iters, _ int) sample {
		nxh := n/2 + 1
		b := fft.NewRealBatch(n, n, 1, n, 1, nxh)
		defer b.Release()
		phys, spec := make([]float64, n*n), make([]complex128, n*nxh)
		for i := range phys {
			phys[i] = float64(i % 11)
		}
		return fftKernel(iters, n, n, func() { b.Forward(spec, phys) }, func() { b.Inverse(phys, spec) })
	}
}

// copyTransform stands in for the distributed transform under a
// solver: the slab engine's geometry, but each direction only copies
// (the inverse with the 1/N³ the real one applies, so an iterated state
// stays finite). A step on it is the solver's arithmetic plus 9 copies
// per evaluation, with no FFT and no exchange.
type copyTransform struct {
	*pfft.SlabReal
	scale float64
}

func (t copyTransform) FourierToPhysical(phys []float64, four []complex128) {
	for i := 0; i < len(phys)/2; i++ {
		phys[2*i], phys[2*i+1] = real(four[i])*t.scale, imag(four[i])*t.scale
	}
}

func (t copyTransform) PhysicalToFourier(four []complex128, phys []float64) {
	half := len(phys) / 2
	for i := 0; i < half; i++ {
		four[i] = complex(phys[2*i], phys[2*i+1])
	}
	clear(four[half:])
}

// solverArithmetic times op — one full NS RK2 step, or one stage sweep —
// on a copyTransform, crediting it with passes(C, B, R) bytes per rank
// per call: C, B and R are the bytes of one spectral array, one band
// field of the timed rank's solver (Solver.BandLen: the right-hand
// sides and stage buffers hold the 2/3 band only) and one physical
// array (a read-modify-write is two passes).
func solverArithmetic(n, p int, op func(*spectral.Solver, float64), passes func(c, b, r float64) float64) func(iters, workers int) sample {
	var band int // set by rank 0, the rank timeLoop times
	run := solverOp(func(c *mpi.Comm, workers int) stepEngine {
		return copyTransform{pfft.NewSlabRealStrategy(c, n, workers, exchange.Auto), 1 / (float64(n) * float64(n) * float64(n))}
	}, func(s *spectral.Solver, dt float64) {
		if s.Comm().Rank() == 0 {
			band = s.BandLen()
		}
		op(s, dt)
	}, n, p)
	plane := float64(n / p * n)
	return func(iters, workers int) sample {
		s := run(iters, workers)
		s.moved = float64(iters) * passes(16*plane*float64(n/2+1), 16*float64(band), 8*plane*float64(n))
		return s
	}
}

// stepPasses is the traffic of one NS RK2 step on a copyTransform. An
// evaluation: 3 copies into work (6C), 3 + 6 stub copies (9C + 9R), 6
// products (18R), 6 band reads of work feeding 3 stores and 6 updates
// of the band right-hand side (21B), projection (6B) — 15C + 27B + 27R.
// Two of those, the stage sweep between them and the final combination
// (reads save, acc, N and writes the band of u: 12B).
func stepPasses(c, b, r float64) float64 { return 2*(15*c+27*b+27*r) + sweepPasses(c, b, r) + 12*b }

// sweepPasses is the RK2 stage sweep: per field it reads and writes u
// (its band rows take u*, the rest their end-of-step value), reads N
// and writes save and acc on the band.
func sweepPasses(c, b, _ float64) float64 { return 3 * (2*c + 3*b) }

// memcpyGBs is the contiguous-copy rate of this machine, this run: the
// best of three copies between two 64 MiB arrays (the ceiling the
// benchmark's hw.memcpy_gb_s reports, measured the same way).
func memcpyGBs() float64 {
	const elems = 4 << 20
	src, dst := make([]complex128, elems), make([]complex128, elems)
	for i := range src {
		src[i] = complex(float64(i), 0)
	}
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		copy(dst, src)
		best = min(best, time.Since(t0).Seconds())
	}
	return 16 * elems / 1e9 / best
}

var workloads = []workload{
	{"slab_fwd_inv_n64_p4", 40, 8, true, slabTransform(64, 4)},
	{"slab_fwd_inv_n128_p4", 10, 2, true, slabTransform(128, 4)},
	{"dns_rk2_step_n32_p2", 30, 6, true, dnsStep(32, 2)},
	{"step_forced_n64", 10, 2, true, dnsStep(64, 4,
		spectral.WithForcing(2, 0.05), spectral.WithForcingNoise(0.5, 3))},
	{"step_scalar_n64", 8, 2, true, dnsStep(64, 4,
		spectral.WithRotation(2.0), spectral.WithScalars(2, 1.0, 0.7), spectral.WithScalarGradient(1.0))},
	{"barrier_skew_p2", 4000, 800, true, barrierSkew(2)},
	{"barrier_skew_p4", 4000, 800, true, barrierSkew(4)},
	{"exchange_fused_n64", 400, 80, true, exchangeYZ(64, 4, exchange.Fused)},
	{"exchange_chunked_n64", 400, 80, true, exchangeYZ(64, 4, exchange.ChunkedFused)},
	{"exchange_fused_n128", 60, 12, true, exchangeYZ(128, 4, exchange.Fused)},
	{"exchange_chunked_n128", 60, 12, true, exchangeYZ(128, 4, exchange.ChunkedFused)},
	{"step_at_n64", 10, 2, true, dnsStepAT(64, 4, 1)},
	{"exchange_at_n64", 400, 80, true, exchangeYZ(64, 4, exchange.AT)},
	{"slab_f32_fwd_inv_n64_p4", 40, 8, true, slabTransformSingle(64, 4)},
	{"slab_f32_fwd_inv_n128_p4", 10, 2, true, slabTransformSingle(128, 4)},
	{"slab_tuned_n64_p4", 40, 8, true, slabTransformTuned(64, 4)},
	{"pencil_fwd_inv_n64_p4", 40, 8, true, pencilTransform(64, 2, 2)},
	{"pencil_fwd_inv_n64_p8", 20, 8, true, pencilTransform(64, 2, 4)},
	{"pencil_fwd_inv_n128_p4", 10, 4, true, pencilTransform(128, 2, 2)},
	{"async_fwd_inv_n64_p2", 40, 8, true, asyncBand(64, 2, 4, -1)},
	{"async_band_fwd_inv_n64_p2", 40, 8, true, asyncBand(64, 2, 4, grid.DealiasKmax(64))},
	{"slab_fwd_inv_n64_p2", 40, 8, true, slabBand(64, 2, -1)},
	{"slab_band_fwd_inv_n64_p2", 40, 8, true, slabBand(64, 2, grid.DealiasKmax(64))},
	{"step_async_n64", 10, 2, true, asyncStep(64, 2, 4)},
	{"fft_c2c_strided_n48", 20000, 4000, true, fftC2C(48, true)},
	{"fft_c2c_strided_n64", 20000, 4000, true, fftC2C(64, true)},
	{"fft_c2c_contig_n128", 10000, 2000, true, fftC2C(128, false)},
	{"fft_r2c_n48", 10000, 2000, true, fftR2C(48)},
	{"fft_r2c_n64", 10000, 2000, true, fftR2C(64)},
	{"rhs_ns_n64_p2", 40, 8, true, solverArithmetic(64, 2, (*spectral.Solver).Step, stepPasses)},
	{"if_sweep_n64", 400, 80, true, solverArithmetic(64, 2, (*spectral.Solver).StageSweep, sweepPasses)},
}

func main() {
	var (
		quick       = flag.Bool("quick", false, "fewer iterations per workload (CI mode)")
		out         = flag.String("out", "BENCH_step.json", "output path for the measurement file")
		baseline    = flag.String("baseline", "", "committed baseline to compare against")
		check       = flag.Bool("check", false, "exit non-zero on regression vs -baseline")
		tolerance   = flag.Float64("tolerance", 0.25, "allowed fractional ns/op growth vs baseline")
		workers     = flag.Int("workers", 1, "worker-team size for transform workloads")
		only        = flag.String("only", "", "run only the named workload")
		compareMode = flag.Bool("compare", false, "compare two measurement files (bench -compare old.json new.json) instead of running workloads")
	)
	flag.Parse()

	if *compareMode {
		if flag.NArg() != 2 {
			log.Fatal("bench -compare needs exactly two files: old.json new.json")
		}
		failed, missing := compareFiles(flag.Arg(0), flag.Arg(1), *tolerance)
		switch {
		case missing:
			// Distinct status: a disappeared workload is a harness
			// change, not a measured regression.
			os.Exit(2)
		case failed:
			os.Exit(1)
		}
		return
	}

	f := File{Schema: 1, GoVersion: runtime.Version(), Quick: *quick, Workers: *workers}
	memcpy := 0.0 // measured when the first bandwidth row needs it
	for _, w := range workloads {
		if *only != "" && w.name != *only {
			continue
		}
		iters := w.full
		if *quick {
			iters = w.quick
		}
		s := w.run(iters, *workers)
		r := Result{
			Name:        w.name,
			Iters:       iters,
			NsPerOp:     float64(s.ns) / float64(iters),
			AllocsPerOp: float64(s.allocs) / float64(iters),
			BytesPerOp:  float64(s.bytes) / float64(iters),
			GFlops:      s.flop / float64(s.ns),
			GBPerS:      s.moved / float64(s.ns),
		}
		if r.GBPerS > 0 {
			if memcpy == 0 {
				memcpy = memcpyGBs()
			}
			// A copy reads and writes every byte it is credited with, so
			// the ceiling for counted traffic is twice the copy rate.
			r.FracOfMemcpy = r.GBPerS / (2 * memcpy)
		}
		f.Results = append(f.Results, r)
		fmt.Printf("%-22s %10d iters %14.0f ns/op %10.1f allocs/op %12.0f B/op",
			r.Name, r.Iters, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
		if r.GFlops > 0 {
			fmt.Printf(" %8.2f GFlop/s", r.GFlops)
		}
		if r.GBPerS > 0 {
			fmt.Printf(" %8.2f GB/s = %.2f of memcpy (%.2f GB/s copied)", r.GBPerS, r.FracOfMemcpy, memcpy)
		}
		fmt.Println()
	}

	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}

	hotFailed := hotpathGate(f.Results, workloads)

	if *baseline != "" {
		base, err := loadBaseline(*baseline)
		if err != nil {
			log.Fatalf("bench: read baseline: %v", err)
		}
		if compare(f.Results, base, *tolerance) && *check {
			os.Exit(1)
		}
	}
	if hotFailed {
		os.Exit(1)
	}
}

// hotpathGate fails any hotpath-marked workload that reports more
// than allocSlack allocs/op. Unlike compare it needs no baseline: the
// annotated paths are allocation-free at steady state by design, and
// the slack only absorbs process-wide background noise such as the
// stall watchdog's ticker. This is the dynamic cross-check of the
// psdnslint hotalloc analyzer.
func hotpathGate(results []Result, ws []workload) bool {
	hot := map[string]bool{}
	for _, w := range ws {
		hot[w.name] = w.hotpath
	}
	failed := false
	for _, r := range results {
		if !hot[r.Name] || r.AllocsPerOp <= allocSlack {
			continue
		}
		fmt.Printf("%-22s FAIL hotpath workload allocates: %.1f allocs/op (slack %d)\n",
			r.Name, r.AllocsPerOp, allocSlack)
		failed = true
	}
	return failed
}

// compareFiles diffs two measurement files row by row — speedup is
// old/new, so >1 is an improvement — and reports whether any shared
// row regressed beyond the tolerance or grew its allocs/op (failed),
// and whether any workload present in the old file disappeared from
// the new one (missing). A vanished row usually means a renamed or
// dropped workload silently escaping the gate, so the caller exits
// with a distinct status for it. Rows present only in the new file
// are informational.
func compareFiles(oldPath, newPath string, tol float64) (failed, missing bool) {
	old, err := loadBaseline(oldPath)
	if err != nil {
		log.Fatalf("bench: read %s: %v", oldPath, err)
	}
	data, err := os.ReadFile(newPath)
	if err != nil {
		log.Fatalf("bench: read %s: %v", newPath, err)
	}
	var nf File
	if err := json.Unmarshal(data, &nf); err != nil {
		log.Fatalf("bench: parse %s: %v", newPath, err)
	}
	fmt.Printf("%-26s %10s %14s %14s  %s\n", "workload", "speedup", "old ns/op", "new ns/op", "verdict")
	for _, r := range nf.Results {
		b, ok := old[r.Name]
		if !ok {
			fmt.Printf("%-26s %10s %14s %14.0f  new row\n", r.Name, "-", "-", r.NsPerOp)
			continue
		}
		delete(old, r.Name)
		v, bad := verdict(r, b, tol)
		failed = failed || bad
		fmt.Printf("%-26s %9.2fx %14.0f %14.0f  %s\n", r.Name, b.NsPerOp/r.NsPerOp, b.NsPerOp, r.NsPerOp, v)
	}
	for name := range old {
		r := old[name]
		fmt.Printf("%-26s %10s %14.0f %14s  FAIL workload missing from %s\n",
			name, "-", r.NsPerOp, "-", newPath)
		missing = true
	}
	return failed, missing
}

func loadBaseline(path string) (map[string]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	m := make(map[string]Result, len(f.Results))
	for _, r := range f.Results {
		m[r.Name] = r
	}
	return m, nil
}

// allocSlack is the absolute allocs/op growth the gate tolerates.
// Zero: timeLoop attributes allocations by memory-profile diff, which
// is immune to the runtime's background cache churn, so a hotpath
// workload that allocates anything at all is a real regression.
const allocSlack = 0

// verdict is the gate's one rule for a row against its baseline, shared
// by -baseline and -compare: it fails on ns/op beyond the tolerance, or
// on allocs/op growing by more than the absolute slack.
func verdict(r, b Result, tol float64) (string, bool) {
	if r.AllocsPerOp > b.AllocsPerOp+allocSlack {
		return fmt.Sprintf("FAIL allocs/op grew %.1f -> %.1f", b.AllocsPerOp, r.AllocsPerOp), true
	}
	if ratio := r.NsPerOp / b.NsPerOp; ratio > 1+tol {
		return fmt.Sprintf("FAIL ns/op regression %.0f%% > %.0f%%", (ratio-1)*100, tol*100), true
	}
	return "ok", false
}

// compare prints a verdict per workload and reports whether any failed
// the gate.
func compare(results []Result, base map[string]Result, tol float64) bool {
	failed := false
	for _, r := range results {
		b, ok := base[r.Name]
		if !ok {
			fmt.Printf("%-22s no baseline entry (new workload)\n", r.Name)
			continue
		}
		v, bad := verdict(r, b, tol)
		failed = failed || bad
		fmt.Printf("%-22s %6.2fx vs baseline  %s\n", r.Name, r.NsPerOp/b.NsPerOp, v)
	}
	return failed
}
