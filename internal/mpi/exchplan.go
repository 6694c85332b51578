package mpi

import (
	"fmt"
	"sync/atomic"
	"time"
)

// ExchangePlan is the runtime's persistent collective: the software
// analogue of the MPI_Alltoall_init family and of the paper's
// pre-registered communication buffers (§3.5 allocates every wire
// buffer once at startup and reuses it every step). Each Do publishes
// the rank's current source slab and then runs a caller-supplied
// gather that reads **directly from every peer's published slab**
// (ranks are goroutines in one address space). What the exchange
// moves is the gather's business: ReducePlan folds every rank's
// vector, and the fused transpose of exchange.Stage lands
// strided rows straight in the destination layout — pack, wire copy
// and unpack in one parallel pass (the in-process analogue of the
// paper's §4 zero-copy strided kernels reading pinned host memory in
// place; see transpose.GatherYZRange and friends).
//
// Synchronization contract: the entry barrier orders every rank's
// publication before any rank's gather (and keeps a rank from
// publishing the next cycle's slab while a peer still reads the
// previous one); the exit barrier orders every gather before any rank
// returns, so callers may overwrite their source slab the moment Do
// returns. Both barriers are the plan's own, registered with the
// world: they are watchdog-visible (stall and deadlock detection see
// ranks blocked in them), abortable (a peer's panic or a scheduled
// crash wakes them through the abort cascade), and the operation
// counter advances on every Do so crash schedules fire inside plan
// exchanges.
//
// Do runs the runtime's one collective round (exchange), as every
// one-shot collective does, and so takes the world's message faults
// (see Faults): each published slab is one message per reader, which
// the fault rules may delay or drop (a duplicate is counted and has no
// effect — a shared slab read twice is the same read). DoBounded does
// not take them.
//
// Collective contract (as for MPI persistent collectives): every rank
// constructs the plan at the same point in its collective order and
// calls Do collectively; the published source slab must not alias the
// gather's destination.
type ExchangePlan[T any] struct {
	c    *Comm
	sh   *exchShared[T]
	wire int64 // wire bytes charged per Do (SetWire): by default everything but the local slab's share
	free bool
	// msgBytes is the size of one reader's share of wire, what each
	// published slab weighs under the message faults; built once with
	// the plan so Do passes it without building a closure.
	msgBytes func(dst int) int64

	// Asynchrony-tolerant per-handle state (DoBounded only).
	epoch int64  // last epoch this rank published
	site  uint32 // quantity label for the next publication (SetSite)
	gsrcs [][]T  // reusable gather table of selected ring slots
	// Staleness window since the last TakeStaleness: worst per-peer
	// slab age, summed age, stale slab count and DoBounded calls. Ages
	// are counted in same-site publications (whole exchange cycles),
	// not raw epochs — see SetSite.
	stMax   int
	stSum   int64
	stSlabs int64
	stCalls int64
}

// exchShared is the world-side state of one plan: the per-rank
// published source slabs, the plan's private rendezvous, and — for
// asynchrony-tolerant plans — the epoch-tagged publication rings.
type exchShared[T any] struct {
	srcs [][]T
	rv   rendezvous
	refs int
	seq  int // collective sequence number keying w.plans / w.planBars

	// Asynchrony-tolerant state (zero on synchronous plans). Each rank
	// publishes by copying its slab into rings[rank][epoch%S] and then
	// release-storing the epoch tag; peers acquire-load the tag, so an
	// observed epoch implies the full slab contents of that epoch. The
	// ring holds S = 2·maxStale+2 slots: a peer gathering at epoch e'
	// reads epochs ≥ e'−maxStale, and the hard bound keeps any two
	// in-flight calls within 2·maxStale+1 epochs of each other, so the
	// slot being overwritten for epoch X (which held X−S) is provably
	// dead.
	at       bool
	maxStale int
	deadline time.Duration
	slabLen  int
	rings    [][][]T
	epochs   []atomic.Int64
	// sites[r][epoch%S] labels what rank r published at that epoch
	// (the caller's SetSite value). Written before the epoch tag's
	// release store, read after a peer's acquire load — same discipline
	// and same slot-retention argument as the rings themselves.
	sites [][]uint32
}

// NewExchangePlan registers an exchange plan over c. slabLen is the
// element count of the slab each rank will publish; the rank is
// charged slabLen − ⌊slabLen/P⌋ elements of wire traffic per Do
// (everything a transpose gather reads from remote slabs: the
// off-diagonal blocks) until SetWire says otherwise. Collective: blocks
// until every rank has registered.
func NewExchangePlan[T any](c *Comm, slabLen int) *ExchangePlan[T] {
	return newExchangePlan[T](c, slabLen, false, 0, 0)
}

// NewExchangePlanBounded registers an asynchrony-tolerant fused
// exchange: Do is replaced by DoBounded, publication is epoch-tagged
// and double-buffered (a ring of 2·maxStale+2 plan-owned slab copies
// per rank), and a rank whose peers lag behind proceeds with their
// latest published slabs once they are within maxStale epochs and the
// per-plan deadline has expired. A deadline ≤ 0 means "never wait past
// the hard bound". Collective: every rank must construct the plan with
// the same mode, slab length, maxStale and deadline — a disagreeing
// rank panics at plan time (collective-contract violation).
func NewExchangePlanBounded[T any](c *Comm, slabLen, maxStale int, deadline time.Duration) *ExchangePlan[T] {
	if maxStale < 0 {
		panic(fmt.Sprintf("mpi: rank %d: negative staleness bound %d", c.rank, maxStale))
	}
	return newExchangePlan[T](c, slabLen, true, maxStale, deadline)
}

func newExchangePlan[T any](c *Comm, slabLen int, at bool, maxStale int, deadline time.Duration) *ExchangePlan[T] {
	p := c.Size()
	if slabLen < 0 {
		panic(fmt.Sprintf("mpi: rank %d: negative exchange plan slab length %d", c.rank, slabLen))
	}
	seq := c.nextSeq()
	w := c.w
	w.mu.Lock()
	if w.aborted {
		w.mu.Unlock()
		panic(errAborted)
	}
	if w.plans == nil {
		w.plans = map[int]any{}
	}
	var sh *exchShared[T]
	if v, ok := w.plans[seq]; ok {
		sh = v.(*exchShared[T])
		if sh.at != at || (at && (sh.maxStale != maxStale || sh.deadline != deadline || sh.slabLen != slabLen)) {
			w.mu.Unlock()
			panic(fmt.Sprintf("mpi: rank %d: exchange plan seq %d mode disagrees with peers "+
				"(collective contract violation: at=%v/%v maxStale=%d/%d deadline=%v/%v)",
				c.rank, seq, at, sh.at, maxStale, sh.maxStale, deadline, sh.deadline))
		}
	} else {
		sh = &exchShared[T]{srcs: make([][]T, p), rv: newRendezvous(w), seq: seq,
			at: at, maxStale: maxStale, deadline: deadline, slabLen: slabLen}
		if at {
			slots := 2*maxStale + 2
			sh.rings = make([][][]T, p)
			sh.sites = make([][]uint32, p)
			for r := range sh.rings {
				ring := make([][]T, slots)
				for s := range ring {
					ring[s] = make([]T, slabLen)
				}
				sh.rings[r] = ring
				sh.sites[r] = make([]uint32, slots)
			}
			sh.epochs = make([]atomic.Int64, p)
		}
		w.plans[seq] = sh
		if w.planBars == nil {
			w.planBars = map[int]*barrier{}
		}
		w.planBars[seq] = sh.rv.bar
	}
	sh.refs++
	w.mu.Unlock()
	pl := &ExchangePlan[T]{
		c: c, sh: sh,
		wire: sliceBytes[T](slabLen - slabLen/p),
	}
	pl.msgBytes = func(int) int64 { return pl.wire / int64(max(p-1, 1)) }
	if at {
		pl.gsrcs = make([][]T, p)
	}
	// All ranks must have registered before the first Do publishes into
	// a peer-visible slot.
	sh.rv.bar.wait(w, c.rank, seq)
	return pl
}

// SetWire sets the wire traffic each later Do or DoBounded charges to
// exchange.bytes: elems elements of T, what the caller's gather reads
// from remote slabs. A plan starts at slabLen·(P−1)/P; a gather that
// reads only part of each slab (a band) says how much. A plan serving
// several gathers of different reach is set before each.
func (pl *ExchangePlan[T]) SetWire(elems int) { pl.wire = sliceBytes[T](elems) }

// Do executes one fused exchange: src is published as this rank's
// source slab, and once every rank has published, gather runs with
// the full table of published slabs (indexed by rank) to perform the
// local strided gathers. After Do returns on every rank, each rank's
// destination holds exactly what a pack → all-to-all → unpack triple
// would have produced — in one pass instead of three.
// Under message faults the gather first waits until every peer's slab
// is visible to this rank (awaitFates).
//
// Collective and allocation-free. The gather wall time is recorded in
// exchange.gather.ns and the time inside the two barriers around it in
// exchange.wait.entry.ns / exchange.wait.exit.ns (all nanoseconds),
// wire-equivalent remote-read bytes in exchange.bytes and calls in
// exchange.calls.
//
//psdns:hotpath
func (pl *ExchangePlan[T]) Do(src []T, gather func(srcs [][]T)) {
	if pl.free {
		panic("mpi: ExchangePlan used after Free")
	}
	if pl.sh.at {
		panic("mpi: Do on an asynchrony-tolerant ExchangePlan; use DoBounded")
	}
	c := pl.c
	c.maybeCrash()
	m := c.m()
	m.exchCalls.Inc()
	m.exchBytes.Add(pl.wire)
	exchange(c, &pl.sh.rv, pl.sh.seq, pl.sh.srcs, src, pl.msgBytes, gather, m.exch)
}

// Free releases the plan (collective in effect: after every rank has
// called Free the world drops its reference to the shared state and
// its barrier, so the abort cascade stops waking it). The plan must
// not be used afterwards.
func (pl *ExchangePlan[T]) Free() {
	if pl.free {
		return
	}
	pl.free = true
	w := pl.c.w
	w.mu.Lock()
	pl.sh.refs--
	if pl.sh.refs == 0 {
		delete(w.plans, pl.sh.seq)
		delete(w.planBars, pl.sh.seq)
	}
	w.mu.Unlock()
}

// boundedPoll is the sleep quantum of DoBounded's epoch waits: short
// enough that abort cascades, deadline expiries and freshly published
// epochs are observed promptly, long enough not to burn a core.
const boundedPoll = 50 * time.Microsecond

// SetSite labels the quantity the next DoBounded publishes. A plan
// whose call sites are heterogeneous — different components, stages or
// transpose directions sharing one epoch stream — must label each call
// with a site ID that is identical across ranks at the same collective
// position (the collective contract makes every rank's epoch→site
// sequence the same, so the local rank's own label history describes
// every peer's). DoBounded then only substitutes a peer's stale slab
// when that slab was published for the *same* site: a lagging peer's
// data is the same quantity from a whole number of exchange cycles
// earlier, never a different quantity read in the wrong layout. On a
// site mismatch the exchange falls back to a (watchdog-visible) full
// wait for that peer. Plans that never call SetSite label every call 0
// and retain plain epoch-lag semantics. Not safe for concurrent use
// with DoBounded on the same handle.
func (pl *ExchangePlan[T]) SetSite(site uint32) {
	pl.site = site
}

// DoBounded executes one asynchrony-tolerant exchange on a plan built
// with NewExchangePlanBounded. The rank's slab is copied into this
// epoch's ring slot and the epoch tag released; the rank then waits —
// hard — until every peer is within maxStale epochs (never past a
// peer's first publication), and after that only up to the plan
// deadline for peers to reach the current epoch. The gather runs on
// each peer's latest published slab, clamped to the current epoch so a
// fast peer's future slab is never delivered early, and accepted only
// if that slab carries the current call's site label (SetSite) — when
// the peer's newest slab was published for a different exchange site,
// the gather falls back to the peer's newest retained same-site slab
// within the bound, and waits for the peer only when none is retained.
// Each accepted slab's age (the number of
// same-site publications it lags, i.e. whole exchange cycles) is
// recorded in the exchange.staleness histogram and each slab with age
// > 0 in exchange.stale.slabs. maxStale may tighten (never exceed) the
// plan's bound per call.
//
// Unlike Do there is no exit barrier: the gather reads plan-owned ring
// copies, so the caller may overwrite src the moment DoBounded returns
// while slower peers keep reading the retained epochs. The hard-bound
// wait is watchdog-visible ("bounded-wait") and abortable; crash
// schedules fire via the operation counter exactly as for Do.
//
//psdns:hotpath
func (pl *ExchangePlan[T]) DoBounded(src []T, gather func(srcs [][]T), maxStale int) {
	if pl.free {
		panic("mpi: ExchangePlan used after Free")
	}
	sh := pl.sh
	if !sh.at {
		panic("mpi: DoBounded on a synchronous ExchangePlan; construct with NewExchangePlanBounded")
	}
	if maxStale < 0 || maxStale > sh.maxStale {
		panic(fmt.Sprintf("mpi: rank %d: DoBounded staleness bound %d outside plan bound [0,%d]",
			pl.c.rank, maxStale, sh.maxStale))
	}
	if len(src) != sh.slabLen {
		panic(fmt.Sprintf("mpi: rank %d: DoBounded src length %d != plan slab length %d",
			pl.c.rank, len(src), sh.slabLen))
	}
	c := pl.c
	c.maybeCrash()
	m := c.m()
	m.exchCalls.Inc()
	m.exchBytes.Add(pl.wire)
	// Publish: copy src into this epoch's ring slot, label the slot
	// with the call's site, then release the epoch tag. The atomic
	// store orders both before any peer's acquire load, so an observed
	// epoch implies that epoch's contents and label.
	e := pl.epoch + 1
	pl.epoch = e
	me := c.rank
	slots := len(sh.rings[me])
	copy(sh.rings[me][int(e%int64(slots))], src)
	sh.sites[me][int(e%int64(slots))] = pl.site
	sh.epochs[me].Store(e)
	c.w.progress.Add(1)

	// Hard bound: no peer may be more than maxStale epochs behind, and
	// epoch 1 always waits for every peer's first publication (there is
	// no older slab to fall back on).
	lo := e - int64(maxStale)
	if lo < 1 {
		lo = 1
	}
	pl.waitPeers(lo, e)

	// Assemble the gather table from each rank's freshest site-matched
	// publication, clamped to e (a stale slab is accepted only if it is
	// this site's publication from an earlier cycle), and account each
	// slab's age in same-site cycles. When the peer's newest slab
	// carries a different site label, the ring still retains its older
	// publications, so fall back to its newest same-site slab within
	// the hard bound — the same quantity from a whole cycle earlier —
	// and only wait when no retained slab qualifies. (The retained
	// slots scanned here are at least maxStale+2 epochs behind any
	// slot the peer can be concurrently overwriting, by the same
	// divergence bound that keeps the ring contents safe.)
	stEnabled := m.staleness.Enabled()
	for r := range pl.gsrcs {
		pe := sh.epochs[r].Load()
		if pe > e {
			pe = e
		}
		if pe < e && sh.sites[r][int(pe%int64(slots))] != pl.site {
			x := pe - 1
			for x >= lo && sh.sites[r][int(x%int64(slots))] != pl.site {
				x--
			}
			if x >= lo {
				pe = x
			} else {
				pe = pl.waitSiteMatch(r, e)
			}
		}
		pl.gsrcs[r] = sh.rings[r][int(pe%int64(slots))]
		if r == me {
			continue
		}
		// Age = how many same-site publications the slab lags. The
		// accepted epoch is within the hard bound, so (pe, e] lies
		// inside the local rank's own retained label history — and by
		// the collective contract that history equals the peer's.
		st := int64(0)
		for x := pe + 1; x <= e; x++ {
			if sh.sites[me][int(x%int64(slots))] == pl.site {
				st++
			}
		}
		if stEnabled {
			m.staleness.Observe(float64(st))
		}
		if st > 0 {
			m.staleSlabs.Inc()
			pl.stSlabs++
			pl.stSum += st
			if int(st) > pl.stMax {
				pl.stMax = int(st)
			}
		}
	}
	pl.stCalls++
	enabled := m.exch.gather.Enabled()
	var t0 time.Time
	if enabled {
		t0 = time.Now()
	}
	gather(pl.gsrcs)
	if enabled {
		m.exch.gather.Observe(float64(time.Since(t0).Nanoseconds()))
	}
	c.w.progress.Add(1)
}

// waitPeers blocks until every rank's published epoch is at least lo
// (the hard staleness bound), then keeps waiting up to the plan
// deadline for every rank to reach target. The hard phase registers
// with the watchdog like a barrier (stall and deadlock detection see
// it); the deadline phase is bounded by construction and does not.
func (pl *ExchangePlan[T]) waitPeers(lo, target int64) {
	if pl.minEpoch() >= target {
		return // fast path: everyone already published this epoch
	}
	c, sh := pl.c, pl.sh
	w := c.w
	var tok *blockedOp
	defer func() {
		if tok != nil {
			w.watchExit(tok)
		}
	}()
	if pl.minEpoch() < lo {
		tok = w.watchEnter(blockedOp{rank: c.rank, op: opBounded, peer: -1, tag: sh.seq, since: time.Now()})
		for pl.minEpoch() < lo {
			if w.isAborted() {
				panic(w.abortCause(c.rank))
			}
			time.Sleep(boundedPoll)
		}
		w.watchExit(tok)
		tok = nil
	}
	if sh.deadline <= 0 {
		return
	}
	deadline := time.Now().Add(sh.deadline)
	for pl.minEpoch() < target {
		if w.isAborted() {
			panic(w.abortCause(c.rank))
		}
		if !time.Now().Before(deadline) {
			return
		}
		time.Sleep(boundedPoll)
	}
}

// waitSiteMatch blocks until peer r's latest publication either
// carries the current call's site label or reaches epoch e, and
// returns the epoch to gather from. A stale slab published for a
// different exchange site is a different quantity in a (possibly)
// different layout — substituting it would corrupt the gather rather
// than age it — so a site mismatch falls back to synchronous behavior
// with that peer. The wait is watchdog-visible ("bounded-wait") and
// abortable like the hard-bound phase; it cannot deadlock, because the
// lagging peer never blocks on ranks ahead of it (their epochs already
// satisfy its hard bound) and so keeps publishing until it reaches a
// matching site or the current epoch.
//
//psdns:hotpath
func (pl *ExchangePlan[T]) waitSiteMatch(r int, e int64) int64 {
	c, sh := pl.c, pl.sh
	w := c.w
	slots := int64(len(sh.rings[r]))
	tok := w.watchEnter(blockedOp{rank: c.rank, op: opBounded, peer: r, tag: sh.seq, since: time.Now()})
	defer w.watchExit(tok)
	for {
		pe := sh.epochs[r].Load()
		if pe >= e {
			return e
		}
		if sh.sites[r][int(pe%slots)] == pl.site {
			return pe
		}
		if w.isAborted() {
			panic(w.abortCause(c.rank))
		}
		time.Sleep(boundedPoll)
	}
}

// minEpoch returns the lowest published epoch across all ranks.
//
//psdns:hotpath
func (pl *ExchangePlan[T]) minEpoch() int64 {
	sh := pl.sh
	min := int64(1) << 62
	for r := range sh.epochs {
		if e := sh.epochs[r].Load(); e < min {
			min = e
		}
	}
	return min
}

// TakeStaleness returns the worst accepted slab age, the summed age,
// the number of stale peer slabs accepted and the number of DoBounded
// calls since the previous take, then resets the window. Ages are in
// same-site publications (whole exchange cycles — with SetSite labels
// that is whole iterations of the caller's outer loop; without labels
// it degenerates to raw epoch lag). Layers above use it to drive
// staleness-weighted scheme corrections.
func (pl *ExchangePlan[T]) TakeStaleness() (max int, sum, slabs, calls int64) {
	max, sum, slabs, calls = pl.stMax, pl.stSum, pl.stSlabs, pl.stCalls
	pl.stMax, pl.stSum, pl.stSlabs, pl.stCalls = 0, 0, 0, 0
	return
}
