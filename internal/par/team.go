// Package par provides the OpenMP-style intra-rank worker-thread
// parallelism of the paper's hybrid MPI+OpenMP design (§1, §3.4): with
// 2 MPI tasks per node, "OpenMP threads can be used to launch
// operations to the 3 GPUs per socket" and to parallelize the host
// loops (FFT batches, packing) across cores. Ranks are goroutines
// here, so threads are a persistent team of further goroutines inside
// a rank.
package par

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// Package-level worker occupancy accounting, published to a registry
// on demand (par.workers.busy / par.workers.peak / par.regions). Hot
// counters are package atomics for the same reason as internal/fft's:
// worker dispatch sits inside every transform and must not take a
// registry lock.
var (
	busyWorkers atomic.Int64 // workers currently executing a chunk
	peakBusy    atomic.Int64 // high-water mark of busyWorkers
	regions     atomic.Int64 // parallel regions dispatched
)

func enterChunk() {
	b := busyWorkers.Add(1)
	for {
		p := peakBusy.Load()
		if b <= p || peakBusy.CompareAndSwap(p, b) {
			return
		}
	}
}

func exitChunk() { busyWorkers.Add(-1) }

// PublishMetrics copies the package occupancy totals into reg:
// par.workers.busy (instantaneous), par.workers.peak (high-water mark)
// and par.regions (cumulative parallel regions executed).
func PublishMetrics(reg *metrics.Registry) {
	reg.Gauge("par.workers.busy").Set(float64(busyWorkers.Load()))
	reg.Gauge("par.workers.peak").Set(float64(peakBusy.Load()))
	reg.Counter("par.regions").Store(regions.Load())
}

// Team is a persistent worker team: n−1 long-lived helper goroutines
// plus the caller, dispatched per parallel region with no goroutine
// churn — the analogue of an OMP thread team that outlives individual
// "omp parallel for" regions. Engines hold one Team across their whole
// lifetime so steady-state dispatch performs zero allocations: the
// region body is handed over through a field write and a channel
// signal, and workers park on their channels between regions.
//
// A Team serializes its regions with an internal mutex, so concurrent
// dispatch from different goroutines is safe (regions simply queue);
// a region body must not dispatch onto its own team (self-deadlock).
// Close releases the helper goroutines; using a closed team panics.
type Team struct {
	n int

	mu sync.Mutex // serializes regions; guards the dispatch fields
	wg sync.WaitGroup

	// Dispatch state of the current region, written under mu before
	// the start signals and read by helpers after them.
	body    func(w, lo, hi int)
	total   int // iteration count of the region
	nw      int // workers participating in the region
	grain   int // per-worker chunk for the region
	start   []chan struct{}
	closed  chan struct{}
	isClose atomic.Bool
}

// NewTeam creates a team of n workers (n ≥ 1). n = 1 creates no helper
// goroutines and degenerates to serial execution.
func NewTeam(n int) *Team {
	if n < 1 {
		panic(fmt.Sprintf("par: invalid team size %d", n))
	}
	t := &Team{n: n, closed: make(chan struct{})}
	t.start = make([]chan struct{}, n-1)
	for i := range t.start {
		t.start[i] = make(chan struct{})
		go t.worker(i + 1)
	}
	return t
}

func (t *Team) worker(w int) {
	ch := t.start[w-1]
	for {
		select {
		case <-t.closed:
			return
		case <-ch:
		}
		t.runChunk(w)
		t.wg.Done()
	}
}

// runChunk executes worker w's static chunk of the current region.
//
//psdns:hotpath
func (t *Team) runChunk(w int) {
	lo := w * t.grain
	hi := lo + t.grain
	if hi > t.total {
		hi = t.total
	}
	if lo >= hi {
		return
	}
	enterChunk()
	t.body(w, lo, hi)
	exitChunk()
}

// Size reports the team size.
func (t *Team) Size() int { return t.n }

// Close releases the helper goroutines. The team must be idle.
func (t *Team) Close() {
	if t.isClose.CompareAndSwap(false, true) {
		close(t.closed)
	}
}

// ForWorkers executes body(w, lo, hi) over static contiguous chunks of
// [0, n), one chunk per worker, blocking until all complete. w is the
// worker index in [0, Size()), for bodies that need per-worker scratch
// (FFT plans carry scratch and are not concurrency-safe). Dispatch is
// allocation-free: pass a precomputed body closure for zero-alloc hot
// paths.
//
//psdns:hotpath
func (t *Team) ForWorkers(n int, body func(w, lo, hi int)) {
	if t.isClose.Load() {
		panic("par: ForWorkers on closed Team")
	}
	if n <= 0 {
		return
	}
	regions.Add(1)
	if t.n == 1 || n == 1 {
		enterChunk()
		body(0, 0, n)
		exitChunk()
		return
	}
	t.mu.Lock()
	workers := t.n
	if workers > n {
		workers = n
	}
	t.body = body
	t.total = n
	t.nw = workers
	t.grain = (n + workers - 1) / workers
	t.wg.Add(workers - 1)
	for i := 0; i < workers-1; i++ {
		t.start[i] <- struct{}{}
	}
	t.runChunk(0)
	t.wg.Wait()
	t.body = nil
	t.mu.Unlock()
}
