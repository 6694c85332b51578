package mpi

import (
	"sync"
	"sync/atomic"
	"time"
)

// matchKey identifies a message class within one (src,dst) pair.
// Collective traffic and point-to-point traffic use disjoint spaces so
// a user tag can never swallow a collective fragment.
type matchKey struct {
	tag  int
	coll bool
}

type message struct {
	key  matchKey
	data any
	// bytes is the approximate wire size of the payload, used by the
	// size-dependent fault delay models.
	bytes int64
}

// errAborted is the sentinel panic raised by blocking operations when
// the world has been aborted by a panic on another rank or by the
// watchdog (the MPI_Abort analogue). Run treats ranks that die with
// this value as secondary casualties and reports the original panic
// instead.
type abortError struct{}

func (abortError) Error() string { return "mpi: world aborted by a rank panic" }

var errAborted = abortError{}

// spuriousWakeups counts the times a mailbox waiter woke without its
// message being present. With per-key wakeups this stays near zero
// even under heavy fan-in; BenchmarkMailboxFanIn reports it per op.
var spuriousWakeups atomic.Int64

// waiter tracks the goroutines blocked on one match key of a mailbox,
// each key with its own condition variable so a delivery wakes only
// the waiters that could consume it (at most one key matches any
// message, so the old broadcast woke every other waiter for nothing).
type waiter struct {
	cv *sync.Cond
	n  int
}

// mailbox is the per-(src,dst) delivery queue. Messages with the same
// key are delivered in FIFO order; different keys may be consumed out
// of order (MPI tag matching).
type mailbox struct {
	mu      sync.Mutex
	q       []message
	waiters map[matchKey]*waiter
	aborted bool

	// Immutable identity, set at world construction: the source and
	// destination ranks of this queue plus the owning world, for
	// watchdog progress accounting and fault injection.
	w        *world
	src, dst int
}

func newMailbox(w *world, src, dst int) *mailbox {
	return &mailbox{w: w, src: src, dst: dst, waiters: map[matchKey]*waiter{}}
}

// put delivers msg, first applying any configured fault rules: the
// message may be dropped, duplicated, or held on a timer before it
// becomes visible to get. It is called only from rank src's goroutine,
// which keeps the per-mailbox fault stream deterministic.
func (m *mailbox) put(msg message) {
	f := m.w.faults
	if f == nil {
		m.deliver(msg)
		return
	}
	drop, dup, delay := f.outcome(m.src, m.dst, msg.key, msg.bytes)
	if drop {
		f.drops[m.src].Inc()
		return
	}
	n := 1
	if dup {
		f.dups[m.src].Inc()
		n = 2
	}
	if delay > 0 {
		f.delays[m.src].Inc()
		// In-flight messages count as pending so the deadlock detector
		// does not mistake a delayed world for a dead one.
		m.w.pending.Add(int64(n))
		for i := 0; i < n; i++ {
			time.AfterFunc(delay, func() {
				m.deliver(msg)
				m.w.pending.Add(-1)
			})
		}
		return
	}
	for i := 0; i < n; i++ {
		m.deliver(msg)
	}
}

// deliver enqueues msg and wakes only the waiters interested in its
// key.
func (m *mailbox) deliver(msg message) {
	m.mu.Lock()
	m.q = append(m.q, msg)
	wt := m.waiters[msg.key]
	m.mu.Unlock()
	m.w.progress.Add(1)
	if wt != nil {
		wt.cv.Signal()
	}
}

// get blocks until a message with the given key is available, removes
// the first such message and returns its payload. It panics with the
// receiving rank's abortCause if the world is aborted while waiting.
func (m *mailbox) get(key matchKey) any {
	m.mu.Lock()
	defer m.mu.Unlock()
	var tok *blockedOp
	defer func() {
		if tok != nil {
			m.w.watchExit(tok)
		}
	}()
	for {
		for i := range m.q {
			if m.q[i].key == key {
				data := m.q[i].data
				// Shift the tail down and zero the vacated slot: a bare
				// append(m.q[:i], m.q[i+1:]...) leaves a duplicate
				// reference to a payload in the backing array, retaining
				// large pencil buffers long past delivery.
				copy(m.q[i:], m.q[i+1:])
				m.q[len(m.q)-1] = message{}
				m.q = m.q[:len(m.q)-1]
				m.w.progress.Add(1)
				return data
			}
		}
		if m.aborted {
			panic(m.w.abortCause(m.dst))
		}
		if tok == nil {
			tok = m.w.watchEnter(m.dst, opRecv, m.src, key.tag, key.coll, time.Now())
		} else {
			spuriousWakeups.Add(1)
		}
		wt := m.waiters[key]
		if wt == nil {
			wt = &waiter{cv: sync.NewCond(&m.mu)}
			m.waiters[key] = wt
		}
		wt.n++
		wt.cv.Wait()
		wt.n--
		if wt.n == 0 && m.waiters[key] == wt {
			delete(m.waiters, key)
		}
	}
}

// abort unblocks all waiters permanently.
func (m *mailbox) abort() {
	m.mu.Lock()
	m.aborted = true
	for _, wt := range m.waiters {
		wt.cv.Broadcast()
	}
	m.mu.Unlock()
}
