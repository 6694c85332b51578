package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Watchdog configures the stall watchdog of a world and of every
// sub-communicator Split derives from it. The watchdog runs on one
// monitor goroutine per run and watches two failure shapes the abort
// cascade (RankError) is blind to:
//
//   - True deadlock: every live rank is blocked in a wait or barrier —
//     of the world or of any of its sub-communicators — no collective
//     round has finished since the quiescent window
//     began, and no fault-delayed publication is still in flight. Nothing
//     can ever make progress again, so the world is aborted after
//     DeadlockAfter with a StallError (Deadlock=true).
//   - Per-operation stall: a rank has been blocked in one operation
//     longer than Deadline. This catches stragglers even while the rest
//     of the world is making progress (Deadlock=false).
//
// Either way the world is aborted, and the rank the StallError names
// raises it from the wait it is blocked in, where layers above can
// annotate it (spectral.Solver.Step does); every other rank unwinds
// with the plain abort.
//
// The zero value is the default configuration: deadlock detection on
// with a 2s quiescence window, no per-operation deadline.
type Watchdog struct {
	// Off disables monitoring entirely (no monitor goroutine).
	Off bool
	// Deadline, when positive, bounds how long a rank may stay blocked
	// in one operation (a barrier, a collective's wait for a peer's
	// publication, a bounded exchange's wait)
	// before the world is aborted with a StallError. Zero disables the
	// per-operation deadline.
	Deadline time.Duration
	// DeadlockAfter is how long the world must stay globally quiescent
	// before a deadlock is declared. Zero means 2s.
	DeadlockAfter time.Duration
	// Poll is the monitor's sampling period. Zero means 25ms.
	Poll time.Duration
}

const (
	defaultDeadlockAfter = 2 * time.Second
	defaultPoll          = 25 * time.Millisecond
)

func (wd Watchdog) withDefaults() Watchdog {
	if wd.DeadlockAfter == 0 {
		wd.DeadlockAfter = defaultDeadlockAfter
	}
	if wd.Poll == 0 {
		wd.Poll = defaultPoll
	}
	return wd
}

// Blocking operation kinds reported in StallError.Op.
const (
	opWait    = "wait"
	opBarrier = "barrier"
	// opBounded is the hard-bound phase of an asynchrony-tolerant
	// DoBounded: waiting for a peer that is more than maxStale epochs
	// behind (the deadline-bounded second phase never registers).
	opBounded = "bounded-wait"
)

// StallError is the typed failure the watchdog surfaces when the world
// stops making progress: the blocked rank, the operation it is stuck
// in, the peer and collective it is waiting on, and how long it
// waited. The named rank panics with it, so TryRun returns it wrapped
// in that rank's *RankError (errors.As extracts it).
type StallError struct {
	Rank int    // the blocked rank
	Op   string // "wait", "barrier" or "bounded-wait"
	Peer int    // the rank whose publication it waits for, -1 when not applicable
	Tag  int    // the collective's sequence number
	// Waited is how long the operation had been blocked when the
	// stall was declared.
	Waited time.Duration
	// Deadlock reports whether the error came from global quiescence
	// detection (every live rank blocked, nothing in flight) rather
	// than a per-operation deadline.
	Deadlock bool
}

func (e *StallError) Error() string {
	kind := "stalled"
	if e.Deadlock {
		kind = "deadlocked"
	}
	if e.Peer >= 0 {
		return fmt.Sprintf("mpi: %s: rank %d blocked in %s on peer %d (collective seq %d) for %v",
			kind, e.Rank, e.Op, e.Peer, e.Tag, e.Waited.Round(time.Millisecond))
	}
	return fmt.Sprintf("mpi: %s: rank %d blocked in %s (collective seq %d) for %v",
		kind, e.Rank, e.Op, e.Tag, e.Waited.Round(time.Millisecond))
}

// blockedOp is one rank blocked in a wait or barrier since since.
type blockedOp struct {
	w    *world // the world whose wait it is
	rank int    // its rank in w
	root int    // its rank in the root world
	op   string
	// peer is the rank waited for (-1 when none), tag the collective's
	// sequence number.
	peer, tag int
	// bar is the barrier a parked rank waits in, nil for other waits;
	// a stall report names its lowest missing rank as the peer, read
	// when the report is made, since peers keep arriving meanwhile.
	bar   *barrier
	since time.Time
}

// watchState is the bookkeeping behind the watchdog of one world and
// every sub-communicator derived from it: the set of currently blocked
// operations, per-rank blocked counts and liveness (in root ranks, so
// a rank blocked in any world of the family counts as blocked), and
// the quiescence window. One monitor polls it, whatever the number of
// sub-communicators.
type watchState struct {
	cfg Watchdog

	// progress counts finished collective rounds and bounded-exchange
	// publications in any world of the family; the deadlock detector
	// uses it as a quiescence marker.
	progress atomic.Int64

	mu      sync.Mutex
	ops     map[*blockedOp]struct{}
	rankOps []int // blocked ops per root rank
	live    []bool
	nlive   int
	stall   *StallError
	stallW  *world // the world the stalled rank waits in
	// free recycles blockedOp tokens so steady-state enter/exit (which
	// sits inside every barrier and wait of the watchdog-on-by-default
	// world) does not allocate per blocked operation.
	free []*blockedOp

	quiet    bool
	quietAt  time.Time
	lastProg int64

	stop, done chan struct{}
}

func newWatchState(cfg Watchdog, p int) *watchState {
	ws := &watchState{
		cfg:     cfg,
		ops:     map[*blockedOp]struct{}{},
		rankOps: make([]int, p),
		live:    make([]bool, p),
		nlive:   p,
		// Full freelist capacity up front (8KB of pointers) so the
		// append in exit never grows the backing array mid-operation:
		// enter/exit sits inside every barrier and blocking wait.
		free: make([]*blockedOp, 0, maxFreeOps),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for i := range ws.live {
		ws.live[i] = true
	}
	// One token per rank up front, and the op set's first bucket: a rank
	// blocks in one operation at a time, so rank-level enter never
	// allocates — not the first time every rank is blocked at once, and
	// not at the first park of a polling world, which can come at any
	// step (a map allocates its first bucket on the first insert).
	toks := make([]blockedOp, p)
	for i := range toks {
		ws.free = append(ws.free, &toks[i])
	}
	ws.ops[&toks[0]] = struct{}{}
	delete(ws.ops, &toks[0])
	return ws
}

func (ws *watchState) enter(op blockedOp) *blockedOp {
	ws.mu.Lock()
	var b *blockedOp
	if n := len(ws.free); n > 0 {
		b = ws.free[n-1]
		ws.free[n-1] = nil
		ws.free = ws.free[:n-1]
	} else {
		b = new(blockedOp)
	}
	*b = op
	ws.ops[b] = struct{}{}
	ws.rankOps[op.root]++
	ws.mu.Unlock()
	return b
}

// maxFreeOps bounds the token freelist; beyond it exited tokens fall to
// the GC. The bound only needs to cover the peak number of concurrently
// blocked ops, which is one per rank.
const maxFreeOps = 1024

func (ws *watchState) exit(b *blockedOp) {
	ws.mu.Lock()
	delete(ws.ops, b)
	ws.rankOps[b.root]--
	// A stall verdict may hold a pointer into b (stallFrom copies, so
	// only the ops map references it); safe to recycle once delisted.
	if len(ws.free) < maxFreeOps {
		ws.free = append(ws.free, b)
	}
	ws.mu.Unlock()
}

// rankDone marks a rank's function as returned (or panicked): it no
// longer counts toward the all-live-ranks-blocked deadlock condition.
// Nil-safe so run can defer it unconditionally.
func (ws *watchState) rankDone(rank int) {
	if ws == nil {
		return
	}
	ws.mu.Lock()
	if ws.live[rank] {
		ws.live[rank] = false
		ws.nlive--
	}
	ws.mu.Unlock()
}

// stalled returns the watchdog's verdict and the world the stalled
// rank waits in, nil when there is none. Nil-safe.
func (ws *watchState) stalled() (*StallError, *world) {
	if ws == nil {
		return nil, nil
	}
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.stall, ws.stallW
}

// monitor polls the blocked-op set until the run finishes or a stall
// is declared, and then aborts the root world w and with it every
// sub-communicator. It runs on its own goroutine; run closes ws.stop
// after all ranks return and waits on ws.done.
func (ws *watchState) monitor(w *world) {
	defer close(ws.done)
	t := time.NewTicker(ws.cfg.Poll)
	defer t.Stop()
	for {
		select {
		case <-ws.stop:
			return
		case <-t.C:
		}
		if w.isAborted() {
			return
		}
		if st := ws.check(w, time.Now()); st != nil {
			// Abort outside ws.mu: abortAll takes barrier locks, which
			// rank goroutines hold while calling enter/exit.
			w.abortAll()
			return
		}
	}
}

// check evaluates both detectors against the current blocked-op set
// and records (and returns) a StallError if one fires.
func (ws *watchState) check(w *world, now time.Time) *StallError {
	prog := ws.progress.Load()
	pending := w.pending.Load()
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.stall != nil {
		return nil
	}
	// Per-operation deadline: the longest-blocked op, even while the
	// rest of the world makes progress.
	oldest := ws.oldest()
	if d := ws.cfg.Deadline; d > 0 && oldest != nil {
		if wt := now.Sub(oldest.since); wt >= d {
			ws.stall, ws.stallW = stallFrom(oldest, wt, false), oldest.w
			return ws.stall
		}
	}
	// Global quiescence: every live rank blocked, in whichever world of
	// the family, nothing delivered since the window began, nothing
	// still in flight on a fault-injection delay. Under the
	// one-goroutine-per-rank contract no future delivery is possible in
	// that state.
	allBlocked := ws.nlive > 0
	for r, lv := range ws.live {
		if lv && ws.rankOps[r] == 0 {
			allBlocked = false
			break
		}
	}
	if !allBlocked || pending != 0 || (ws.quiet && prog != ws.lastProg) {
		ws.quiet = false
		return nil
	}
	if !ws.quiet {
		ws.quiet = true
		ws.quietAt = now
		ws.lastProg = prog
		return nil
	}
	if now.Sub(ws.quietAt) < ws.cfg.DeadlockAfter {
		return nil
	}
	if oldest == nil {
		ws.quiet = false // raced with the last exit; re-arm
		return nil
	}
	b := ws.blame(oldest)
	ws.stall, ws.stallW = stallFrom(b, now.Sub(b.since), true), b.w
	return ws.stall
}

// blame picks the op a deadlock is reported on: the longest-blocked op
// of a communicator whose live members all wait in it, since a
// deadlock closed inside one communicator is that communicator's, and
// otherwise (a cycle through several) the longest-blocked op of all.
// Runs once, when the deadlock is declared. Callers hold ws.mu.
func (ws *watchState) blame(oldest *blockedOp) *blockedOp {
	waiting := map[*world]map[int]bool{}
	for b := range ws.ops {
		if waiting[b.w] == nil {
			waiting[b.w] = map[int]bool{}
		}
		waiting[b.w][b.rank] = true
	}
	closed := map[*world]bool{}
	for w, in := range waiting {
		closed[w] = true
		for r := 0; r < w.size; r++ {
			if ws.live[w.rootRank(r)] && !in[r] {
				closed[w] = false
				break
			}
		}
	}
	var best *blockedOp
	for b := range ws.ops {
		if closed[b.w] && (best == nil || b.since.Before(best.since)) {
			best = b
		}
	}
	if best == nil {
		return oldest
	}
	return best
}

// oldest returns the longest-blocked op, nil when there is none.
// Callers hold ws.mu.
func (ws *watchState) oldest() *blockedOp {
	var o *blockedOp
	for b := range ws.ops {
		if o == nil || b.since.Before(o.since) {
			o = b
		}
	}
	return o
}

func stallFrom(b *blockedOp, waited time.Duration, deadlock bool) *StallError {
	peer := b.peer
	if b.bar != nil {
		peer = b.bar.missing()
	}
	return &StallError{
		Rank: b.rank, Op: b.op, Peer: peer, Tag: b.tag,
		Waited: waited, Deadlock: deadlock,
	}
}

// --- nil-safe world-level hooks -----------------------------------------

// watchEnter registers op.rank as blocked in op since op.since: when
// its wait began, or earlier when the wait belongs to an operation
// entered before it (see exchange).
func (w *world) watchEnter(op blockedOp) *blockedOp {
	if w == nil || w.watch == nil {
		return nil
	}
	op.w, op.root = w, w.rootRank(op.rank)
	return w.watch.enter(op)
}

func (w *world) watchExit(tok *blockedOp) {
	if tok == nil || w == nil || w.watch == nil {
		return
	}
	w.watch.exit(tok)
}

// progressed marks a finished collective round or bounded-exchange
// publication: the deadlock detector's quiescence window restarts.
func (w *world) progressed() {
	if w.watch != nil {
		w.watch.progress.Add(1)
	}
}

// abortCause is what a wait of rank raises once the world is aborted:
// the watchdog's *StallError when it names rank in this world, so the
// stalled rank unwinds with the typed cause, and errAborted on every
// other rank.
func (w *world) abortCause(rank int) error {
	if st, sw := w.watch.stalled(); st != nil && sw == w && st.Rank == rank {
		return st
	}
	return errAborted
}
