package mpi

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// world owns the shared state of one communicator: the P×P mailbox
// matrix, a reusable barrier, the abort flag raised when any rank
// panics, the metrics registry the ranks record traffic into, and the
// robustness layer (stall watchdog + fault injection) when installed.
type world struct {
	size    int
	boxes   []*mailbox // boxes[src*size+dst]
	barrier *barrier
	reg     *metrics.Registry

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

	// watch is the stall watchdog's bookkeeping; nil on unmonitored
	// worlds. Split sub-worlds run their own watchState under the
	// parent's configuration (wd/wdOn below), so stalls inside
	// sub-communicator exchanges are detected too.
	watch *watchState
	// wd is the watchdog configuration this world runs under (already
	// defaulted); wdOn records whether monitoring is enabled. Split
	// copies both into sub-worlds.
	wd   Watchdog
	wdOn bool
	// faults is the compiled fault-injection plan; nil when none.
	faults *faultState

	// progress counts mailbox deliveries and removals; the deadlock
	// detector uses it as a quiescence marker.
	progress atomic.Int64
	// pending counts fault-delayed messages still on a timer.
	pending atomic.Int64

	// fromParent maps a parent-world rank to this sub-world's rank for
	// worlds created by Split; nil on the root world. It lets rankDone
	// cascade a rank's exit into every sub-communicator the rank is a
	// member of, so no sub-world's deadlock detector keeps waiting on a
	// rank that can never re-enter it.
	fromParent map[int]int

	mu       sync.Mutex
	children []*world // sub-communicators created by Split
	aborted  bool
	// plans maps a collective sequence number to the shared state of a
	// persistent collective (see ExchangePlan); planBars maps the same
	// sequence number to the plan's private barrier, kept separately so
	// abortAll can wake it. Both entries are removed when the plan's
	// last reference is Freed, so long-running worlds that build and
	// tear down plans do not accumulate dead barriers.
	plans    map[int]any
	planBars map[int]*barrier
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
	w.boxes = make([]*mailbox, p*p)
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			w.boxes[src*p+dst] = newMailbox(w, src, dst)
		}
	}
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
	planBars := make([]*barrier, 0, len(w.planBars))
	for _, b := range w.planBars {
		planBars = append(planBars, b)
	}
	w.mu.Unlock()
	for _, b := range w.boxes {
		b.abort()
	}
	w.barrier.abort()
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

// stopWatches stops this world's watchdog monitor and, recursively,
// every descendant sub-world's. Called once by run after all ranks
// have returned; Split sub-worlds have no teardown of their own, so
// their monitors live until the whole run ends.
func (w *world) stopWatches() {
	if w.watch != nil {
		close(w.watch.stop)
		<-w.watch.done
	}
	w.mu.Lock()
	children := append([]*world(nil), w.children...)
	w.mu.Unlock()
	for _, c := range children {
		c.stopWatches()
	}
}

// deepStallErr returns this world's stall verdict, or the first one
// recorded by a descendant sub-world's watchdog: a stall detected
// inside a sub-communicator exchange aborts the whole run, and the
// parent's ranks then die of the bare cascade, so the sub-world holds
// the only typed account of what happened.
func (w *world) deepStallErr() *StallError {
	if st := w.stallErr(); st != nil {
		return st
	}
	w.mu.Lock()
	children := append([]*world(nil), w.children...)
	w.mu.Unlock()
	for _, c := range children {
		if st := c.deepStallErr(); st != nil {
			return st
		}
	}
	return nil
}

// rankDone records that one of this world's ranks has returned from
// its rank function, here and transitively in every sub-communicator
// the rank belongs to. A returned rank can never re-enter an exchange,
// so leaving it "live" in a sub-world's watchState would let a
// deadlock among the remaining members — e.g. pencil ranks blocked in
// a row-group transpose whose peer exited — sit below the quiescence
// detector forever.
func (w *world) rankDone(rank int) {
	if w == nil {
		return
	}
	w.watch.rankDone(rank)
	w.mu.Lock()
	kids := append([]*world(nil), w.children...)
	w.mu.Unlock()
	for _, ch := range kids {
		if sub, ok := ch.fromParent[rank]; ok {
			ch.rankDone(sub)
		}
	}
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
// exactly one goroutine at a time, except that non-blocking collective
// Requests may drain it from their own goroutine until waited on.
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
	p2pBytes, p2pMsgs    *metrics.Counter
	exchBytes, exchCalls *metrics.Counter
	a2aWait              *metrics.Histogram
	barrierWait          *metrics.Histogram
	// exchGather records the wall time of each fused-exchange gather
	// pass in nanoseconds, exchEntry and exchExit the time in the
	// barrier before and after it (see ExchangePlan.Do).
	exchGather, exchEntry, exchExit *metrics.Histogram
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
			p2pBytes:    r.CounterRank("mpi.p2p.bytes", c.rank),
			p2pMsgs:     r.CounterRank("mpi.p2p.calls", c.rank),
			exchBytes:   r.CounterRank("exchange.bytes", c.rank),
			exchCalls:   r.CounterRank("exchange.calls", c.rank),
			a2aWait:     r.HistogramRank("mpi.a2a.wait", c.rank),
			barrierWait: r.HistogramRank("mpi.barrier.wait", c.rank),
			exchGather:  r.HistogramRank("exchange.gather.ns", c.rank),
			exchEntry:   r.HistogramRank("exchange.wait.entry.ns", c.rank),
			exchExit:    r.HistogramRank("exchange.wait.exit.ns", c.rank),
			staleness:   r.HistogramRank("exchange.staleness", c.rank),
			staleSlabs:  r.CounterRank("exchange.stale.slabs", c.rank),
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

func (c *Comm) nextSeq() int {
	c.seq++
	return c.seq
}

func (c *Comm) box(src, dst int) *mailbox {
	return c.w.boxes[src*c.w.size+dst]
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
// world: per-(src,dst,tag) message drops, duplicates and delays, plus
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
// StallError message. Use TryRun to receive the failure as an error
// instead of a panic.
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
// the wait before the abort reached it). A clean run returns nil.
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
		w.wd, w.wdOn = cfg.wd.withDefaults(), true
		w.watch = newWatchState(w.wd, p)
		go w.watch.monitor(w)
	}
	var wg sync.WaitGroup
	panics := make([]any, p)
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer w.rankDone(rank)
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
	w.stopWatches()
	// Report the primary panic, skipping ranks that died from the
	// cascade itself.
	for r, e := range panics {
		if e != nil && e != any(errAborted) {
			return &RankError{Rank: r, Err: panicErr(e)}
		}
	}
	// No rank misbehaved on its own: a watchdog stall is the cause —
	// possibly detected by a sub-communicator's watchdog, whose abort
	// cascades up as bare errAborted panics on the parent's ranks.
	if st := w.deepStallErr(); st != nil {
		return st
	}
	for r, e := range panics {
		if e != nil {
			return &RankError{Rank: r, Err: panicErr(e)}
		}
	}
	return nil
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
	// releasedAt is when the last arriver released the current phase,
	// stamped only while metrics are on; zero otherwise.
	releasedAt time.Time
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cv = sync.NewCond(&b.mu)
	return b
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
// and registers with the watchdog.
//
//psdns:hotpath
func (b *barrier) wait(w *world, rank int) {
	b.mu.Lock()
	if b.aborted.Load() {
		b.mu.Unlock()
		panic(w.abortCause(rank))
	}
	m := &w.waits[rank]
	phase := b.phase.Load()
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
	tok = w.watchEnter(rank, opBarrier, -1, 0, true, false)
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
	c.w.barrier.wait(c.w, c.rank)
	stop()
}

// Split partitions the communicator into sub-communicators by color,
// ordering ranks within each new communicator by (key, old rank) as
// MPI_Comm_split does. Every rank must call Split collectively.
//
// Sub-communicators inherit the parent's robustness wiring: the abort
// cascade, the watchdog configuration (each sub-world runs its own
// monitor, so a stall inside a sub-communicator exchange surfaces as
// a typed StallError), and the fault plan's crash schedules (a rank's
// crash follows it into every communicator it joins; the operation
// index counts per communicator, since each Comm keeps its own
// counter). Message-level fault rules stay with the parent world's
// mailboxes: the sub-communicator's traffic is new traffic.
func (c *Comm) Split(color, key int) *Comm {
	type entry struct{ color, key, rank int }
	mine := entry{color, key, c.rank}
	all := make([]entry, c.Size())
	Allgather(c, []entry{mine}, all)

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

	// The lowest old rank of each color builds the shared world and
	// distributes it to its group members over the parent communicator.
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
		nw.fromParent = make(map[int]int, len(parentRanks))
		for sub, pr := range parentRanks {
			nw.fromParent[pr] = sub
		}
		if c.w.wdOn {
			nw.wd, nw.wdOn = c.w.wd, true
			nw.watch = newWatchState(nw.wd, len(group))
			go nw.watch.monitor(nw)
		}
		c.w.adoptChild(nw) // cascade aborts into the sub-communicator
		for _, e := range group[1:] {
			Send(c, e.rank, splitTag, []*world{nw})
		}
	} else {
		buf := make([]*world, 1)
		Recv(c, group[0].rank, splitTag, buf)
		nw = buf[0]
	}
	// Keep parent collective ordering consistent across ranks.
	c.Barrier()
	return &Comm{w: nw, rank: newRank}
}

// splitTag is a reserved point-to-point tag used by Split.
const splitTag = -1 << 30

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
