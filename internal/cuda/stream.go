// Package cuda is a software model of the CUDA execution constructs
// the paper's algorithm is built from: devices, in-order streams,
// events, and kernels and copies described once as prebuilt ops. The
// "device" executes on host memory, but the concurrency semantics —
// in-order execution within a stream, overlap between streams, event
// ordering across streams, host asynchrony of every launch — are those
// of CUDA, which is what the batched asynchronous algorithm (Fig 4)
// actually depends on. A separate cost model (cost.go) carries the
// performance characteristics of the real hardware for the simulator.
//
// Because device memory is host memory here, every kernel is the
// zero-copy kernel of §4.2: it reads and writes the host slab in place,
// and the only bytes a stream moves are the ones an op really copies
// (Op.Bytes). Work that is the same every step is described once by
// prebuilt Op values and reusable Events and replayed with Enqueue,
// RecordEvent and Wait, none of which allocates — the CUDA-graph idea.
package cuda

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Device owns a set of streams, mirroring one GPU.
type Device struct {
	id      int
	mu      sync.Mutex
	streams []*Stream
	met     atomic.Pointer[devMetrics]
}

// devMetrics are the instrumentation handles shared by all streams of
// one device: operations executed, bytes moved by copy engines and
// zero-copy kernels, per-op busy time (whose sum over a window is the
// stream occupancy), and event record-to-completion latency. All
// fields are nil-safe no-op handles until SetMetrics installs real
// ones.
type devMetrics struct {
	ops   *metrics.Counter
	bytes *metrics.Counter
	busy  *metrics.Histogram
	evLat *metrics.Histogram
}

// NewDevice creates device id (the cudaSetDevice analogue is simply
// which Device value a thread launches work on).
func NewDevice(id int) *Device {
	d := &Device{id: id}
	d.met.Store(&devMetrics{})
	return d
}

// SetMetrics attaches rank-labelled instrumentation to the device and
// every stream created on it. Call once during setup, before launching
// work; rank identifies the owning MPI rank.
func (d *Device) SetMetrics(reg *metrics.Registry, rank int) {
	d.met.Store(&devMetrics{
		ops:   reg.CounterRank("cuda.stream.ops", rank),
		bytes: reg.CounterRank("cuda.xfer.bytes", rank),
		busy:  reg.HistogramRank("cuda.stream.busy", rank),
		evLat: reg.HistogramRank("cuda.event.latency", rank),
	})
}

func (d *Device) m() *devMetrics { return d.met.Load() }

// ID reports the device ordinal.
func (d *Device) ID() int { return d.id }

// NewStream creates an asynchronous in-order work queue on the device
// whose ring holds depth entries: how far the host may run ahead of
// the stream before a launch blocks. A caller that replays a fixed
// program sizes it to the most entries it enqueues between two
// synchronizations, Synchronize's own marker included, so a program is
// enqueued without the host ever blocking on a full ring.
func (d *Device) NewStream(name string, depth int) *Stream {
	s := &Stream{name: name, dev: d, ring: make(chan entry, depth), drained: NewEvent()}
	s.wg.Add(1)
	go s.run()
	d.mu.Lock()
	d.streams = append(d.streams, s)
	d.mu.Unlock()
	return s
}

// Synchronize blocks until every stream of the device has drained
// (cudaDeviceSynchronize).
func (d *Device) Synchronize() {
	d.mu.Lock()
	streams := append([]*Stream(nil), d.streams...)
	d.mu.Unlock()
	for _, s := range streams {
		s.Synchronize()
	}
}

// Close shuts down all stream workers once their queues have drained.
// The device must not be used afterwards.
func (d *Device) Close() {
	d.mu.Lock()
	streams := d.streams
	d.streams = nil
	d.mu.Unlock()
	for _, s := range streams {
		close(s.ring)
		s.wg.Wait()
	}
}

// Op is a prebuilt data operation — a kernel or a copy — described once
// at plan time and enqueued any number of times. Kind labels it (the
// name a device error is reported under), Run is its body, and Bytes is
// what it copies, charged to cuda.xfer.bytes per enqueue; a kernel that
// works on the host slab in place moves none.
type Op struct {
	Kind  string
	Run   func()
	Bytes int64
}

// entry is one slot of a stream's ring: a data op (run set), or a
// control op on ev — a record completing generation gen, or a wait for
// it. Control ops execute even after a device error so neither the host
// nor another stream ever hangs on a poisoned one.
type entry struct {
	kind   string
	run    func()
	ev     *Event
	gen    uint64
	record bool
	t0     time.Time // record entries: enqueue time, when latency is observed
}

// Stream is an in-order asynchronous work queue (cudaStream_t): a ring
// of entries (a buffered channel) drained by one worker goroutine. The worker parks only on
// an empty ring or an incomplete event, and the host wakes it only
// then, so a replayed program costs one wake-up per dependency edge
// rather than one per op.
type Stream struct {
	name string
	dev  *Device
	ring chan entry
	wg   sync.WaitGroup

	mu      sync.Mutex
	err     any // sticky device error (a panicking kernel), as on real CUDA
	errKind string

	failed  atomic.Bool // err != nil, readable without mu
	drained *Event      // Synchronize's reusable marker
}

func (s *Stream) run() {
	defer s.wg.Done()
	for e := range s.ring {
		s.exec(&e)
	}
}

// exec runs one entry on the worker.
func (s *Stream) exec(e *entry) {
	switch {
	case e.run == nil && e.record:
		if !e.t0.IsZero() {
			s.dev.m().evLat.ObserveSince(e.t0)
		}
		e.ev.complete(e.gen)
	case e.run == nil:
		e.ev.wait(e.gen)
	case s.failed.Load():
		// A sticky error poisons the stream: remaining data work is
		// drained without executing, like a device in error state.
	default:
		defer s.poison(e)
		if m := s.dev.m(); m.busy.Enabled() {
			t0 := time.Now()
			e.run()
			m.busy.ObserveSince(t0)
			m.ops.Inc()
			return
		}
		e.run()
	}
}

// poison records a panicking op as the stream's sticky error.
func (s *Stream) poison(e *entry) {
	if r := recover(); r != nil {
		s.mu.Lock()
		s.err, s.errKind = r, e.kind
		s.mu.Unlock()
		s.failed.Store(true)
	}
}

// Err reports the sticky device error, if any (cudaGetLastError).
func (s *Stream) Err() any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Name reports the stream label.
func (s *Stream) Name() string { return s.name }

// Enqueue enqueues a prebuilt op on the stream and returns
// immediately; the op runs after all previously enqueued work
// (kernel-launch semantics). Nothing is allocated.
//
//psdns:hotpath
func (s *Stream) Enqueue(op *Op) {
	if op.Bytes != 0 {
		s.dev.m().bytes.Add(op.Bytes)
	}
	s.ring <- entry{kind: op.Kind, run: op.Run}
}

// RecordEvent re-records a reusable event: ev then stands for this
// point of the stream, and completes when the stream reaches it. The
// latency from record to completion — how far the host runs ahead of
// the device — is observed into cuda.event.latency when metrics are on.
//
//psdns:hotpath
func (s *Stream) RecordEvent(ev *Event) {
	e := entry{ev: ev, gen: ev.recorded.Add(1), record: true}
	if s.dev.m().evLat.Enabled() {
		e.t0 = time.Now()
	}
	s.ring <- e
}

// Wait makes subsequent work on this stream wait until ev's latest
// record completes (cudaStreamWaitEvent): the wait occupies the stream,
// not the host.
//
//psdns:hotpath
func (s *Stream) Wait(ev *Event) {
	s.ring <- entry{ev: ev, gen: ev.recorded.Load()}
}

// Synchronize blocks the host until all currently enqueued work has
// executed (cudaStreamSynchronize). It panics with the sticky device
// error if a kernel failed, so failures surface at the next host
// synchronization point exactly as CUDA error checking does.
//
//psdns:hotpath
func (s *Stream) Synchronize() {
	s.RecordEvent(s.drained)
	s.drained.Synchronize()
	if s.failed.Load() {
		s.mu.Lock()
		err, kind := s.err, s.errKind
		s.mu.Unlock()
		panic(fmt.Sprintf("cuda: device error on stream %s in %s: %v", s.name, kind, err))
	}
}

// Event marks a point in a stream (cudaEvent_t). It is a pair of
// generation numbers — records issued, records completed — so one event
// is re-recorded every step without being reallocated; an event never
// recorded is complete.
type Event struct {
	recorded atomic.Uint64
	done     atomic.Uint64
	mu       sync.Mutex
	cv       sync.Cond
}

// NewEvent returns a reusable event (cudaEventCreate).
func NewEvent() *Event {
	e := &Event{}
	e.cv.L = &e.mu
	return e
}

func (e *Event) complete(gen uint64) {
	e.mu.Lock()
	e.done.Store(gen)
	e.mu.Unlock()
	e.cv.Broadcast()
}

func (e *Event) wait(gen uint64) {
	if e.done.Load() >= gen {
		return
	}
	e.mu.Lock()
	for e.done.Load() < gen {
		e.cv.Wait()
	}
	e.mu.Unlock()
}

// Synchronize blocks the host until the event's latest record
// completes.
func (e *Event) Synchronize() { e.wait(e.recorded.Load()) }
