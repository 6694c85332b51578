package mpi

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// world owns the shared state of one communicator: a reusable
// barrier, the publication table and rendezvous of its one-shot
// collectives, the abort flag raised when any rank panics, the metrics
// registry the ranks record traffic into, and the robustness layer
// (stall watchdog + fault injection) when installed.
type world struct {
	size    int
	barrier *barrier
	reg     *metrics.Registry
	// pubs is the one-shot collectives' publication table (one entry
	// per rank) and coll their rendezvous: every Allgather, Gather,
	// Allreduce and Alltoall(v) is one round of coll over pubs.
	pubs []pub
	coll rendezvous

	// poll is the world's wait policy, derived once by run from what the
	// runtime can observe and handed unchanged to Split sub-worlds: true
	// when every rank goroutine can hold a processor for the whole run,
	// so a rank that reaches a barrier early polls for its peers the way
	// an MPI rank does; false when ranks outnumber processors and a
	// waiting rank must give its thread away (see barrier.wait).
	poll bool
	// waits are the per-rank wait-accounting handles, fetched here so a
	// barrier with metrics off costs one atomic load.
	waits []waitMetrics

	// watch is the stall watchdog's bookkeeping, shared by the root
	// world and every sub-communicator Split derives from it, so a rank
	// blocked in any world of the family counts as blocked; nil on
	// unmonitored worlds.
	watch *watchState
	// faults is the compiled fault-injection plan; nil when none.
	faults *faultState
	// pending counts fault-delayed publications a reader is still
	// waiting out. Message faults reach the root world alone, so the
	// watchdog reads the root's.
	pending atomic.Int64

	// toRoot maps this world's ranks to the root world's for worlds
	// created by Split; nil on the root world. The watchdog keeps its
	// per-rank accounting in root ranks.
	toRoot []int

	mu       sync.Mutex
	children []*world // sub-communicators created by Split
	aborted  bool
	// plans is the ledger of live persistent collectives (see
	// ExchangePlan), keyed by collective sequence number. An entry is
	// removed when the plan's last reference is Freed; one still here
	// when run returns is a leak (livePlans).
	plans map[int]*planReg
}

func newWorld(p int, reg *metrics.Registry, f *faultState) *world {
	w := &world{size: p, reg: reg, faults: f}
	w.barrier = newBarrier(p)
	w.waits = make([]waitMetrics, p)
	for r := range w.waits {
		w.waits[r] = waitMetrics{
			polled: reg.CounterRank("mpi.wait.polled", r),
			parked: reg.CounterRank("mpi.wait.parked", r),
			wake:   reg.HistogramRank("mpi.wait.wake.ns", r),
			policy: reg.GaugeRank("mpi.wait.policy", r),
		}
	}
	w.pubs = make([]pub, p)
	w.coll = newRendezvous(w)
	return w
}

// abortAll wakes every blocked rank of this world and of every
// sub-communicator derived from it; they panic with errAborted, or
// with the watchdog's StallError on the rank it names (abortCause).
func (w *world) abortAll() {
	w.mu.Lock()
	if w.aborted {
		w.mu.Unlock()
		return
	}
	w.aborted = true
	children := append([]*world(nil), w.children...)
	planBars := make([]*barrier, 0, len(w.plans))
	for _, reg := range w.plans {
		planBars = append(planBars, reg.bar)
	}
	w.mu.Unlock()
	w.barrier.abort()
	w.coll.bar.abort()
	for _, b := range planBars {
		b.abort()
	}
	for _, c := range children {
		c.abortAll()
	}
}

func (w *world) isAborted() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.aborted
}

// planReg is one live persistent plan in its world's ledger: the
// shared state every rank's handle points at, the plan's private
// barrier (kept here so abortAll can wake it), how many ranks still
// hold a handle, and the stack of the rank that built it, named only
// if the plan leaks (site).
type planReg struct {
	sh   any
	bar  *barrier
	refs int
	pcs  []uintptr
}

// planCallers records the stack above a plan constructor cheaply;
// building a plan pays no symbolization.
func planCallers() []uintptr {
	pc := make([]uintptr, 16)
	return pc[:runtime.Callers(3, pc)]
}

// site names the code that built the plan: the outermost plan
// constructor of this package on the stack and its caller, with file
// and line, as in "mpi.NewReducePlan from spectral.newSolver
// (solver.go:370)".
func (r *planReg) site() string {
	frames := runtime.CallersFrames(r.pcs)
	ctor := ""
	for {
		f, more := frames.Next()
		name := f.Function[strings.LastIndex(f.Function, "/")+1:]
		if i := strings.Index(name, "["); i >= 0 {
			name = name[:i] // generic instantiation
		}
		if more && (strings.HasPrefix(name, "mpi.NewExchangePlan") || name == "mpi.newExchangePlan" || name == "mpi.NewReducePlan") {
			ctor = name
			continue
		}
		return fmt.Sprintf("%s from %s (%s:%d)", ctor, name, filepath.Base(f.File), f.Line)
	}
}

// livePlans is the world-end ledger check: an error naming every plan
// still registered in this world or any sub-communicator derived from
// it, nil when every plan was Freed. A live plan at the end of a run
// is a leak: the paper's persistent plans are built once and released
// with the engine that owns them.
func (w *world) livePlans() error {
	var leaks []string
	var walk func(*world)
	walk = func(w *world) {
		w.mu.Lock()
		seqs := make([]int, 0, len(w.plans))
		for seq := range w.plans {
			seqs = append(seqs, seq)
		}
		sort.Ints(seqs)
		for _, seq := range seqs {
			leaks = append(leaks, fmt.Sprintf("%s, collective seq %d", w.plans[seq].site(), seq))
		}
		children := append([]*world(nil), w.children...)
		w.mu.Unlock()
		for _, c := range children {
			walk(c)
		}
	}
	walk(w)
	if len(leaks) == 0 {
		return nil
	}
	return fmt.Errorf("mpi: %d plan(s) never freed when the run ended: %s", len(leaks), strings.Join(leaks, "; "))
}

// rootRank maps a rank of w to the root world's rank.
func (w *world) rootRank(r int) int {
	if w.toRoot == nil {
		return r
	}
	return w.toRoot[r]
}

// adoptChild registers a sub-communicator for cascading aborts.
func (w *world) adoptChild(c *world) {
	w.mu.Lock()
	w.children = append(w.children, c)
	aborted := w.aborted
	w.mu.Unlock()
	if aborted {
		c.abortAll()
	}
}

// Comm is one rank's handle on a communicator, analogous to an
// MPI_Comm plus the implicit rank of MPI_Comm_rank. A Comm is used by
// exactly one goroutine at a time.
type Comm struct {
	w    *world
	rank int
	// seq numbers collective operations. Every rank of a communicator
	// must initiate collectives in the same order (as in MPI), so the
	// rank-local counter agrees across ranks without coordination.
	seq int
	// ops counts operation initiations for the fault layer's crash
	// schedules (see Faults.Crash).
	ops int
	// met caches the rank-labelled metric handles; built lazily by the
	// owning goroutine on first instrumented operation.
	met *commMetrics
}

// commMetrics are the per-rank instrumentation handles of one Comm:
// bytes and message counts per collective family, time blocked waiting
// on all-to-alls, and time spent inside barriers (whose per-rank
// spread is the barrier skew). All handles are nil-safe no-ops when
// the world has no registry.
type commMetrics struct {
	a2aBytes, a2aMsgs    *metrics.Counter
	collBytes, collMsgs  *metrics.Counter
	exchBytes, exchCalls *metrics.Counter
	a2aWait              *metrics.Histogram
	barrierWait          *metrics.Histogram
	// exch records each plan exchange's phases (see ExchangePlan.Do):
	// the gather pass and the barriers before and after it.
	exch roundHists
	// staleness records the per-peer epoch lag each DoBounded gather
	// observed (zero when the peer had published the current epoch);
	// staleSlabs counts the peer slabs accepted with lag > 0.
	staleness  *metrics.Histogram
	staleSlabs *metrics.Counter
}

func (c *Comm) m() *commMetrics {
	if c.met == nil {
		r := c.w.reg
		//psdns:allow hotalloc one-time lazy init of the metric handle block, amortized over every later operation
		c.met = &commMetrics{
			a2aBytes:    r.CounterRank("mpi.a2a.bytes", c.rank),
			a2aMsgs:     r.CounterRank("mpi.a2a.calls", c.rank),
			collBytes:   r.CounterRank("mpi.coll.bytes", c.rank),
			collMsgs:    r.CounterRank("mpi.coll.calls", c.rank),
			exchBytes:   r.CounterRank("exchange.bytes", c.rank),
			exchCalls:   r.CounterRank("exchange.calls", c.rank),
			a2aWait:     r.HistogramRank("mpi.a2a.wait", c.rank),
			barrierWait: r.HistogramRank("mpi.barrier.wait", c.rank),
			exch: roundHists{
				entry:  r.HistogramRank("exchange.wait.entry.ns", c.rank),
				gather: r.HistogramRank("exchange.gather.ns", c.rank),
				exit:   r.HistogramRank("exchange.wait.exit.ns", c.rank),
			},
			staleness:  r.HistogramRank("exchange.staleness", c.rank),
			staleSlabs: r.CounterRank("exchange.stale.slabs", c.rank),
		}
	}
	return c.met
}

// Metrics returns the registry this communicator's world records into
// (never nil when the world was created by Run/TryRun; RunWith may
// have been given nil). Layers above mpi use it to attach their own
// rank-labelled instrumentation to the same registry.
func (c *Comm) Metrics() *metrics.Registry { return c.w.reg }

// Rank reports the calling rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size reports the number of ranks in the communicator.
func (c *Comm) Size() int { return c.w.size }

// errAborted is the sentinel panic raised by blocking operations when
// the world has been aborted by a panic on another rank or by the
// watchdog (the MPI_Abort analogue). Run treats ranks that die with
// this value as secondary casualties and reports the original panic
// instead.
type abortError struct{}

func (abortError) Error() string { return "mpi: world aborted by a rank panic" }

var errAborted = abortError{}

func (c *Comm) nextSeq() int {
	c.seq++
	return c.seq
}

// RankError is the typed failure surface of TryRun: the first rank
// whose function panicked, with the recovered value as the cause.
type RankError struct {
	Rank int
	Err  error
}

func (e *RankError) Error() string {
	return fmt.Sprintf("mpi: rank %d panicked: %v", e.Rank, e.Err)
}

// Unwrap exposes the cause for errors.Is/As chains.
func (e *RankError) Unwrap() error { return e.Err }

// runConfig is the assembled configuration of one world.
type runConfig struct {
	reg    *metrics.Registry
	wd     Watchdog
	faults *Faults
}

// RunOption customizes Run/TryRun.
type RunOption func(*runConfig)

// WithWatchdog customizes the world's stall watchdog (deadlock window,
// per-operation deadline, poll period, or Off to disable). The
// watchdog runs by default with deadlock detection only.
func WithWatchdog(wd Watchdog) RunOption {
	return func(c *runConfig) { c.wd = wd }
}

// WithFaults installs a deterministic fault-injection plan on the
// world: per-(src,dst,seq) message drops, duplicates and delays, plus
// scheduled rank crashes. See Faults.
func WithFaults(f *Faults) RunOption {
	return func(c *runConfig) { c.faults = f }
}

// Run executes fn on p ranks, each on its own goroutine, and returns
// after all ranks finish. A panic on any rank aborts the whole world
// (blocked peers are woken, as with MPI_Abort) and is re-raised on the
// caller with the rank attached, so test failures point at the rank
// that misbehaved rather than deadlocking. A detected deadlock or
// stall likewise aborts the world and re-raises with the watchdog's
// StallError message. A run that otherwise succeeds fails when a plan
// (ExchangePlan, ReducePlan) is still registered in the world or any
// sub-communicator: fn must free every plan it builds, and close
// every engine that holds one, before it returns. Use TryRun to
// receive the failure as an error instead of a panic.
func Run(p int, fn func(*Comm), opts ...RunOption) {
	if err := run(p, fn, metrics.Default(), opts); err != nil {
		panic(err.Error())
	}
}

// TryRun is Run with an error contract: a panic on any rank is
// recovered into a *RankError naming the first rank that misbehaved
// (cascade casualties are not reported), instead of crashing the
// calling process. A watchdog-detected deadlock or stall is raised by
// the blocked rank it names, so it arrives as that rank's *RankError
// wrapping a *StallError (the bare *StallError when that rank had left
// the wait before the abort reached it). A run that leaves a plan
// registered returns an error naming each plan's constructor, its
// call site and its collective sequence number (see Run); a clean run
// returns nil.
func TryRun(p int, fn func(*Comm), opts ...RunOption) error {
	return run(p, fn, metrics.Default(), opts)
}

// RunWith is TryRun recording traffic into an explicit metrics
// registry (nil disables instrumentation for the world).
func RunWith(p int, reg *metrics.Registry, fn func(*Comm), opts ...RunOption) error {
	return run(p, fn, reg, opts)
}

func run(p int, fn func(*Comm), reg *metrics.Registry, opts []RunOption) error {
	if p < 1 {
		panic(fmt.Sprintf("mpi: invalid world size %d", p))
	}
	cfg := runConfig{reg: reg}
	for _, o := range opts {
		o(&cfg)
	}
	fs, err := compileFaults(cfg.faults, p, cfg.reg)
	if err != nil {
		return err
	}
	// Ranks poll for their peers only while each can keep a processor
	// for the whole run; oversubscribed ranks must yield their thread.
	w := newWorld(p, cfg.reg, fs)
	w.poll = p <= min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	if !cfg.wd.Off {
		w.watch = newWatchState(cfg.wd.withDefaults(), p)
		go w.watch.monitor(w)
	}
	var wg sync.WaitGroup
	panics := make([]any, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer w.watch.rankDone(rank)
			defer func() {
				if e := recover(); e != nil {
					panics[rank] = e
					w.abortAll()
				}
			}()
			fn(&Comm{w: w, rank: rank})
		}(r)
	}
	wg.Wait()
	if w.watch != nil {
		close(w.watch.stop)
		<-w.watch.done
	}
	// Report the primary panic, skipping ranks that died from the
	// cascade itself.
	for r, e := range panics {
		if e != nil && e != any(errAborted) {
			return &RankError{Rank: r, Err: panicErr(e)}
		}
	}
	// No rank misbehaved on its own: a watchdog stall is the cause,
	// raised on a rank that had left its wait before the abort reached
	// it, so every rank died of the bare cascade.
	if st, _ := w.watch.stalled(); st != nil {
		return st
	}
	for r, e := range panics {
		if e != nil {
			return &RankError{Rank: r, Err: panicErr(e)}
		}
	}
	return w.livePlans()
}

// panicErr converts a recovered panic value into an error, keeping
// error values intact for errors.Is/As.
func panicErr(e any) error {
	if err, ok := e.(error); ok {
		return err
	}
	return fmt.Errorf("%v", e)
}

// pollFor is how long a rank of a polling world polls for its peers
// before it parks. It has to outlast an ordinary wait (≈ 0.45 ms on the
// N = 64 slab step), not merely a wake-up: a budget that often lapses
// pays for the spin and the park both (EXPERIMENTS.md "Polling waits"
// has the sweep — 50 µs ties with no polling at all, 200 µs wins only
// while the machine is quiet, 1 and 5 ms win alike).
const pollFor = time.Millisecond

// waitMetrics are one rank's wait-accounting handles: how its
// non-last barrier arrivals ended (inside the poll budget, or parked),
// how long a parked one took to resume once released, and which policy
// the world runs. Nil-safe like every metrics handle.
type waitMetrics struct {
	polled, parked *metrics.Counter
	wake           *metrics.Histogram // release → resume of a parked wait, ns
	policy         *metrics.Gauge     // 1 poll, 0 park
}

// count records one finished wait and restates the policy gauge: one
// set at world construction would be dropped by a registry that is
// enabled later, as cmd/dns does around its step loop.
func (m *waitMetrics) count(c *metrics.Counter, poll bool) {
	if m.wake.Enabled() {
		c.Inc()
		policy := 0.0
		if poll {
			policy = 1
		}
		m.policy.Set(policy)
	}
}

// barrier is a reusable counting barrier that can be aborted. phase
// and aborted are written under mu (the parked path's cond needs that
// to lose no wake-up) and are atomics so a polling rank can watch them
// without it.
type barrier struct {
	mu      sync.Mutex
	cv      *sync.Cond
	n       int
	count   int
	phase   atomic.Int64
	aborted atomic.Bool
	// arrived[r] is the last phase rank r entered, -1 before its first:
	// the ranks still missing from the current phase are those behind
	// it (missing). Atomic, so the watchdog reads it without mu.
	arrived []atomic.Int64
	// releasedAt is when the last arriver released the current phase,
	// stamped only while metrics are on; zero otherwise.
	releasedAt time.Time
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n, arrived: make([]atomic.Int64, n)}
	b.cv = sync.NewCond(&b.mu)
	for r := range b.arrived {
		b.arrived[r].Store(-1)
	}
	return b
}

// missing returns the lowest rank that has not yet entered the
// barrier's current phase, -1 when none is missing.
func (b *barrier) missing() int {
	phase := b.phase.Load()
	for r := range b.arrived {
		if b.arrived[r].Load() != phase {
			return r
		}
	}
	return -1
}

// wait blocks until all n ranks have entered the barrier's current
// phase. The last arriver releases the rest; how the rest wait is the
// world's policy. In a polling world each rank owns a processor, so an
// early rank polls the phase for up to pollFor — what an MPI rank does
// inside MPI_Alltoall or MPI_Wait — and is running again the moment its
// peer releases it, instead of ≈ 165 µs later when the scheduler and
// the kernel have woken a parked goroutine's thread. Past the budget,
// and always in a parking world (ranks outnumber processors, so a
// waiting rank must hand its thread to a peer), it parks on the cond
// and registers with the watchdog as waiting in round tag (the
// collective's sequence number, 0 for Comm.Barrier) for the lowest
// rank still missing.
//
//psdns:hotpath
func (b *barrier) wait(w *world, rank, tag int) {
	b.mu.Lock()
	if b.aborted.Load() {
		b.mu.Unlock()
		panic(w.abortCause(rank))
	}
	m := &w.waits[rank]
	phase := b.phase.Load()
	b.arrived[rank].Store(phase)
	b.count++
	if b.count == b.n {
		b.count = 0
		b.releasedAt = time.Time{}
		if m.wake.Enabled() {
			b.releasedAt = time.Now()
		}
		b.phase.Store(phase + 1)
		b.cv.Broadcast()
		b.mu.Unlock()
		return
	}
	if w.poll {
		b.mu.Unlock()
		if b.pollPhase(w, rank, phase) {
			m.count(m.polled, true)
			return
		}
		b.mu.Lock()
	}
	defer b.mu.Unlock()
	var tok *blockedOp
	defer func() {
		if tok != nil {
			w.watchExit(tok)
		}
	}()
	tok = w.watchEnter(blockedOp{rank: rank, op: opBarrier, tag: tag, bar: b, since: time.Now()})
	for b.phase.Load() == phase {
		if b.aborted.Load() {
			panic(w.abortCause(rank))
		}
		b.cv.Wait()
	}
	m.count(m.parked, w.poll)
	if !b.releasedAt.IsZero() {
		m.wake.Observe(float64(time.Since(b.releasedAt).Nanoseconds()))
	}
}

// pollPhase polls until the barrier leaves phase (true) or pollFor has
// passed (false), yielding between loads so the worker-team and stream
// goroutines that share the rank's processor still run. An abort
// reaches the poller on its next load, not at the end of its budget.
//
//psdns:hotpath
func (b *barrier) pollPhase(w *world, rank int, phase int64) bool {
	t0 := time.Now()
	for b.phase.Load() == phase {
		if b.aborted.Load() {
			panic(w.abortCause(rank))
		}
		if time.Since(t0) >= pollFor {
			return false
		}
		runtime.Gosched()
	}
	return true
}

func (b *barrier) abort() {
	b.mu.Lock()
	b.aborted.Store(true)
	b.mu.Unlock()
	b.cv.Broadcast()
}

// Barrier blocks until every rank of the communicator has entered it.
// The per-rank time spent inside the barrier is recorded; its spread
// across ranks is the barrier skew.
func (c *Comm) Barrier() {
	c.maybeCrash()
	stop := c.m().barrierWait.Start()
	c.w.barrier.wait(c.w, c.rank, 0)
	stop()
}

// Split partitions the communicator into sub-communicators by color,
// ordering ranks within each new communicator by (key, old rank) as
// MPI_Comm_split does. Every rank must call Split collectively. It is
// two one-shot gathers over the parent: one of every rank's (color,
// key), then one in which the lowest old rank of each color publishes
// the sub-world it has built and its members read it.
//
// Sub-communicators inherit the parent's robustness wiring: the abort
// cascade, the watchdog (the whole family shares the root's monitor,
// so a stall inside a sub-communicator exchange, or a deadlock whose
// ranks wait in different communicators, surfaces as a typed
// StallError), and the fault plan's crash schedules (a rank's
// crash follows it into every communicator it joins; the operation
// index counts per communicator, since each Comm keeps its own
// counter). Message-level fault rules stay with the parent world: the
// sub-communicator's traffic is new traffic.
func (c *Comm) Split(color, key int) *Comm {
	type entry struct{ color, key, rank int }
	all := make([]entry, c.Size())
	Allgather(c, []entry{{color, key, c.rank}}, all)

	var group []entry
	for _, e := range all {
		if e.color == color {
			group = append(group, e)
		}
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].key != group[j].key {
			return group[i].key < group[j].key
		}
		return group[i].rank < group[j].rank
	})
	newRank := -1
	for i, e := range group {
		if e.rank == c.rank {
			newRank = i
		}
	}

	// The lowest old rank of each color builds the shared world.
	var nw *world
	if group[0].rank == c.rank {
		parentRanks := make([]int, len(group))
		for i, e := range group {
			parentRanks[i] = e.rank
		}
		// The sub-world waits as its parent does: a 2-rank column of a
		// 4-rank world on 2 threads is still oversubscribed.
		nw = newWorld(len(group), c.w.reg, c.w.faults.forSubgroup(parentRanks))
		nw.poll = c.w.poll
		nw.toRoot = make([]int, len(parentRanks))
		for sub, pr := range parentRanks {
			nw.toRoot[sub] = c.w.rootRank(pr)
		}
		nw.watch = c.w.watch
		c.w.adoptChild(nw) // cascade aborts into the sub-communicator
	}
	worlds := make([]*world, c.Size())
	Allgather(c, []*world{nw}, worlds)
	return &Comm{w: worlds[group[0].rank], rank: newRank}
}

// CartGrid builds the row and column communicators of a Pr×Pc process
// grid (rank = row*Pc + col), the layout used by the 2D pencil
// decomposition. Row communicators group ranks with equal row index;
// column communicators group ranks with equal column index.
func (c *Comm) CartGrid(pr, pc int) (row, col *Comm) {
	if pr*pc != c.Size() {
		panic(fmt.Sprintf("mpi: grid %dx%d does not match world size %d", pr, pc, c.Size()))
	}
	r := c.rank / pc
	k := c.rank % pc
	row = c.Split(r, k)
	col = c.Split(k+pr, r) // disjoint color space unnecessary per split call, but harmless
	return row, col
}
