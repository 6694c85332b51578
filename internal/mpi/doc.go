// Package mpi is an in-process message-passing runtime that stands in
// for IBM Spectrum MPI in the paper's code: ranks are goroutines,
// communicators can be split into the row/column communicators of a 2D
// process grid, and the collective set covers exactly what the DNS
// needs — barriers, reductions, gathers, blocking all-to-alls
// (MPI_ALLTOALL, MPI_ALLTOALLV), and the persistent exchange and
// reduction plans (ExchangePlan, ReducePlan) every transform engine
// exchanges through. There is no point-to-point layer: no step of the
// paper's algorithm sends a point-to-point message.
//
// Every collective but Barrier is one round of the same core: each
// rank publishes a buffer, the ranks meet in an entry barrier, each
// reads what it needs from its peers' buffers in place (ranks are
// goroutines in one address space), and they meet again in an exit
// barrier, after which every buffer may be reused. ExchangePlan.Do
// runs it over slabs registered once; the one-shot collectives run it
// over the world's publication table, whose entries name the
// collective, its sequence number and the buffer, so a rank whose peer
// is in another collective or passed another length panics, naming
// both ranks, instead of reading a short or stale block. As in MPI,
// collectives must be initiated in the same order on every rank of a
// communicator, and a collective's send and receive buffers must not
// alias.
//
// # Waiting
//
// How a rank waits in a barrier — the world's, or the entry and exit
// barrier of an ExchangePlan — follows from what the runtime
// can observe when the world is built, not from a setting. While every
// rank can hold a processor for the whole run (size ≤ min(GOMAXPROCS,
// NumCPU)) an early rank polls for its peers, yielding between loads so
// worker-team and stream goroutines still run, as an MPI rank spins
// inside MPI_ALLTOALL; after 1 ms it parks. When ranks outnumber
// processors a waiting rank parks at once, since spinning would hold
// the thread a peer needs. Split sub-communicators wait as their parent
// does. Per rank, mpi.wait.polled and mpi.wait.parked count how waits
// ended, mpi.wait.wake.ns is the release → resume time of the parked
// ones, and the gauge mpi.wait.policy says which kind of world it was
// (1 poll, 0 park). Only parked waits are registered with the watchdog.
//
// # Byte accounting convention
//
// Every operation charges sender-side wire bytes: the bytes a rank
// pushes onto the network, excluding loopback copies to itself.
// Concretely, for a communicator of P ranks:
//
//   - Allgather charges every rank (P-1)×len(send).
//   - Gather charges each non-root rank len(send); the root charges 0.
//   - Alltoall charges each rank len(send)-len(send)/P: all blocks
//     except its own diagonal block.
//   - Alltoallv charges Σ sendcounts minus sendcounts[self].
//   - An ExchangePlan charges what its gather reads from remote slabs
//     (SetWire; by default the off-diagonal blocks), under
//     exchange.bytes and exchange.calls rather than mpi.a2a.*:
//     ReducePlan ((P−1)·n) is a plan exchange too.
//
// Summing a counter over ranks therefore gives total traffic offered
// to the interconnect, with no double counting and no phantom loopback
// volume — the quantity the paper's network model (internal/simnet)
// takes as input.
//
// # Failure model
//
// Three failure shapes surface through TryRun as errors:
//
//   - A rank panic (its own bug, or an injected *CrashError) aborts
//     the world — every blocked peer is woken, as with MPI_Abort — and
//     returns a *RankError naming the first rank that misbehaved.
//   - A stall or deadlock detected by the watchdog (see Watchdog)
//     aborts the world with a *StallError naming the blocked rank,
//     operation, peer and collective. That rank raises it from the
//     wait it is blocked in — a barrier, a collective's wait for a
//     peer's publication or a bounded exchange — so it arrives
//     wrapped in the rank's *RankError and code above the runtime on
//     that rank sees it unwind (the solver annotates it with its
//     step). The watchdog is on by default with deadlock detection
//     only; WithWatchdog sets the per-operation Deadline, the one
//     bound on how long a rank may wait, or disables it. One monitor
//     watches a world and every sub-communicator Split derives from
//     it, and a rank blocked in any of them counts as blocked, so a
//     deadlock whose ranks wait in different communicators is
//     declared too.
//   - A run that ends with a plan still registered — in the world or
//     any sub-communicator — fails with an error naming each plan's
//     constructor, its call site and its collective sequence number.
//     The rank function must free every plan it builds, and close
//     every engine holding one, before it returns. The check applies
//     only when the run has no other error to report.
//
// WithFaults injects deterministic message pathologies (drop,
// duplicate, delay, rank crashes) for chaos testing; see Faults. The
// message rules reach every collective round: the one-shot
// collectives and every ExchangePlan.Do, the exchange path of every
// transform strategy but the asynchrony-tolerant one.
// Sub-communicators created by Split share the parent's abort
// cascade and watchdog, and inherit the fault plan's crash schedules
// (re-keyed to the sub-communicator's ranks, operation counts per
// communicator); message-level fault rules apply to the parent world
// only.
package mpi
