// Package repro is the public face of the library: a Go reproduction
// of "GPU acceleration of extreme scale pseudo-spectral simulations of
// turbulence using asynchronism" (Ravikumar, Appelhans & Yeung,
// SC '19). It re-exports the curated API from the internal packages so
// downstream users never import internal paths.
//
// A minimal simulation using the asynchronous engine and functional
// options:
//
//	repro.Run(4, func(c *repro.Comm) {
//	    tr := repro.NewAsync(c, 64,
//	        repro.WithNP(4),
//	        repro.WithGranularity(repro.PerPencil),
//	    )
//	    defer tr.Close()
//	    s := repro.NewSolver(c, 64,
//	        repro.WithNu(0.01),
//	        repro.WithScheme(repro.RK2),
//	        repro.WithDealias(repro.Dealias23),
//	        repro.WithTransform(tr),
//	    )
//	    s.SetRandomIsotropic(3, 0.5, 1)
//	    for i := 0; i < 100; i++ {
//	        s.Step(0.004)
//	    }
//	})
//
// Runtime observability lives behind EnableMetrics/MetricsSnapshot
// (api_metrics.go): per-phase step breakdowns, all-to-all byte and
// wait accounting, GPU transfer volumes. The performance-model side
// (Summit machine description, all-to-all network model, step-time
// simulation, every paper table and figure) is exported from
// api_perf.go; see Table3, Fig9 and friends.
//
// The API surface is split by concern:
//
//   - psdns.go (this file): message passing — ranks, communicators,
//     error recovery.
//   - api_solver.go: the solver, its functional options, and the
//     pluggable equation-set registry (Systems, WithSystem).
//   - api_async.go: transform engines and their functional options.
//   - api_metrics.go: the runtime metrics registry and snapshots.
//   - api_perf.go: the calibrated performance model and paper
//     artifacts.
package repro

import (
	"repro/internal/mpi"
)

// --- Message passing ----------------------------------------------------

// Comm is one rank's communicator handle; ranks are goroutines.
type Comm = mpi.Comm

// RankError reports the first rank whose function panicked under
// TryRun, with the recovered value as the wrapped cause.
type RankError = mpi.RankError

// StallError reports a watchdog-detected deadlock or stall: the
// blocked rank, the operation it was stuck in, and the peer and tag it
// was waiting on. The blocked rank raises it, so TryRun returns it
// inside that rank's *RankError (errors.As extracts it) when the world
// stops making progress instead of hanging forever.
type StallError = mpi.StallError

// CrashError is the typed panic value of a scheduled rank crash
// (Faults.Crash); it reaches the caller wrapped in a *RankError.
type CrashError = mpi.CrashError

// Watchdog configures the runtime's stall watchdog (on by default with
// deadlock detection only). Pass it through WithWatchdog.
type Watchdog = mpi.Watchdog

// Faults is a deterministic fault-injection plan: seeded per-(src,dst,
// collective) message drops, duplicates and delays, plus scheduled
// rank crashes. Pass it through WithFaults.
type Faults = mpi.Faults

// FaultRule describes one class of injected message pathology.
type FaultRule = mpi.FaultRule

// Wildcards for FaultRule rank and tag filters.
const (
	AnyRank = mpi.AnyRank
	AnyTag  = mpi.AnyTag
)

// RunOption customizes Run/TryRun (watchdog configuration, fault
// injection).
type RunOption = mpi.RunOption

// WithWatchdog customizes the world's stall watchdog: the
// per-operation deadline (the one bound on how long a rank may wait),
// the deadlock quiescence window, or Off to disable it.
func WithWatchdog(wd Watchdog) RunOption { return mpi.WithWatchdog(wd) }

// WithFaults installs a deterministic fault-injection plan on the
// world for chaos testing.
func WithFaults(f *Faults) RunOption { return mpi.WithFaults(f) }

// Run executes fn on p in-process ranks and returns when all finish.
// A panic on any rank aborts the world and re-panics on the caller;
// use TryRun to receive the failure as an error instead.
func Run(p int, fn func(*Comm), opts ...RunOption) { mpi.Run(p, fn, opts...) }

// TryRun executes fn on p in-process ranks, recovering a panic on any
// rank into a *RankError naming the rank that misbehaved. A
// watchdog-detected deadlock or stall is a *StallError naming the
// blocked rank, peer and tag, raised by that rank and so wrapped in its
// *RankError. A clean run returns nil.
func TryRun(p int, fn func(*Comm), opts ...RunOption) error { return mpi.TryRun(p, fn, opts...) }
