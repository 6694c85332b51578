package cuda

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestStreamExecutesInOrder(t *testing.T) {
	d := NewDevice(0)
	defer d.Close()
	s := d.NewStream("compute", 16)
	var seq []int
	for i := 0; i < 10; i++ {
		s.Enqueue(&Op{Kind: "op", Run: func() { seq = append(seq, i) }})
	}
	s.Synchronize()
	for i, v := range seq {
		if v != i {
			t.Fatalf("out of order: %v", seq)
		}
	}
}

func TestLaunchIsAsynchronousToHost(t *testing.T) {
	d := NewDevice(0)
	defer d.Close()
	s := d.NewStream("transfer", 16)
	gate := make(chan struct{})
	var ran atomic.Bool
	s.Enqueue(&Op{Kind: "blocked", Run: func() { <-gate; ran.Store(true) }})
	// Host continues immediately even though the stream is blocked.
	if ran.Load() {
		t.Fatal("op ran before gate opened")
	}
	close(gate)
	s.Synchronize()
	if !ran.Load() {
		t.Fatal("op never ran")
	}
}

// A stream of depth d takes d entries behind a running op without the
// host blocking: the ring, not the worker, absorbs a replayed program.
func TestRingTakesDepthEntriesWithoutBlocking(t *testing.T) {
	const depth = 5
	d := NewDevice(0)
	defer d.Close()
	s := d.NewStream("compute", depth)
	gate, running := make(chan struct{}), make(chan struct{})
	s.Enqueue(&Op{Kind: "blocked", Run: func() { close(running); <-gate }})
	<-running // the worker holds the op, so the ring is empty
	enqueued := make(chan struct{})
	go func() {
		for i := 0; i < depth-1; i++ {
			s.Enqueue(&Op{Kind: "op", Run: func() {}})
		}
		s.RecordEvent(NewEvent())
		close(enqueued)
	}()
	select {
	case <-enqueued:
	case <-time.After(5 * time.Second):
		t.Fatalf("host blocked enqueueing %d entries on a depth-%d ring", depth, depth)
	}
	close(gate)
	s.Synchronize()
}

func TestEventOrdersAcrossStreams(t *testing.T) {
	// The Fig 4 pattern: compute on stream A must complete before the
	// D2H copy on stream B touches the buffer. One event is re-recorded
	// every iteration, as the replayed programs do.
	d := NewDevice(0)
	defer d.Close()
	compute := d.NewStream("compute", 16)
	transfer := d.NewStream("transfer", 16)
	ev := NewEvent()
	for iter := 0; iter < 50; iter++ {
		buf := make([]int, 1)
		compute.Enqueue(&Op{Kind: "fft", Run: func() { buf[0] = 42 }})
		compute.RecordEvent(ev)
		transfer.Wait(ev)
		var got int
		transfer.Enqueue(&Op{Kind: "d2h", Run: func() { got = buf[0] }})
		transfer.Synchronize()
		if got != 42 {
			t.Fatalf("iter %d: transfer observed %d before compute finished", iter, got)
		}
	}
}

// eventComplete reads an event's counters: it is complete once its
// stream has reached every record of it.
func eventComplete(e *Event) bool { return e.done.Load() >= e.recorded.Load() }

// An event completes when its stream reaches the record, not before.
func TestEventQueryAndSynchronize(t *testing.T) {
	d := NewDevice(0)
	defer d.Close()
	s := d.NewStream("s", 16)
	ev := NewEvent()
	gate := make(chan struct{})
	s.Enqueue(&Op{Kind: "slow", Run: func() { <-gate }})
	s.RecordEvent(ev)
	if eventComplete(ev) {
		t.Fatal("event complete while stream blocked")
	}
	close(gate)
	ev.Synchronize()
	if !eventComplete(ev) {
		t.Fatal("event not complete after synchronize")
	}
}

// An event never recorded is complete, and synchronizing on it returns.
func TestCompletedEvent(t *testing.T) {
	ev := NewEvent()
	if !eventComplete(ev) {
		t.Fatal("never-recorded event incomplete")
	}
	ev.Synchronize()
}

func TestDeviceSynchronizeDrainsAllStreams(t *testing.T) {
	d := NewDevice(3)
	defer d.Close()
	if d.ID() != 3 {
		t.Fatal("device id")
	}
	var count atomic.Int32
	inc := &Op{Kind: "inc", Run: func() { count.Add(1) }}
	for i := 0; i < 4; i++ {
		s := d.NewStream("s", 16)
		for j := 0; j < 5; j++ {
			s.Enqueue(inc)
		}
	}
	d.Synchronize()
	if count.Load() != 20 {
		t.Fatalf("count %d", count.Load())
	}
}

// --- Cost model -------------------------------------------------------

func TestManyMemcpyMuchSlowerAtSmallChunks(t *testing.T) {
	// Fig 7: below ~100 KB chunks, many cudaMemcpyAsync calls are far
	// slower than the other two approaches.
	c := SummitCopyCost()
	const total = 216e6
	chunk := 8.8e3 // the 8.8 KB point called out in §4.2
	many := c.ManyMemcpyTime(total, chunk)
	zc := c.ZeroCopyTime(total, chunk, 160, true)
	m2d := c.Memcpy2DTime(total, chunk)
	if many < 10*zc || many < 10*m2d {
		t.Errorf("many-memcpy %g not ≫ zero-copy %g / memcpy2D %g", many, zc, m2d)
	}
}

func TestZeroCopyAndMemcpy2DComparable(t *testing.T) {
	// Fig 7's second conclusion: the two fast approaches give similar
	// timings across the sweep.
	c := SummitCopyCost()
	for _, p := range c.Fig7() {
		ratio := p.ZeroCopy / p.Memcpy2D
		if ratio < 0.3 || ratio > 3.5 {
			t.Errorf("chunk %g: zero-copy %g vs memcpy2D %g (ratio %.2f)",
				p.ChunkBytes, p.ZeroCopy, p.Memcpy2D, ratio)
		}
	}
}

func TestFinerGranularityIncreasesTime(t *testing.T) {
	// Fig 7's first conclusion: moving the same total in finer chunks
	// costs more, for every method.
	c := SummitCopyCost()
	pts := c.Fig7()
	for i := 1; i < len(pts); i++ {
		if pts[i].ManyMemcpy > pts[i-1].ManyMemcpy ||
			pts[i].ZeroCopy > pts[i-1].ZeroCopy ||
			pts[i].Memcpy2D > pts[i-1].Memcpy2D {
			t.Errorf("time not monotone in chunk size at %g bytes", pts[i].ChunkBytes)
		}
	}
}

func TestZeroCopySaturatesBy16Blocks(t *testing.T) {
	// Fig 8: close to maximum throughput with only ~16 of 160 blocks.
	c := SummitCopyCost()
	bw16 := c.ZeroCopyBandwidth(16, true)
	bwMax := c.ZeroCopyBandwidth(160, true)
	if bw16 < 0.85*bwMax {
		t.Errorf("16 blocks reaches only %.0f%% of peak", 100*bw16/bwMax)
	}
	// And with ample blocks it is comparable to the copy engine.
	if bwMax < 0.85*c.PeakBW {
		t.Errorf("zero-copy peak %.1f GB/s far below copy engine %.1f", bwMax/1e9, c.PeakBW/1e9)
	}
}

func TestZeroCopyBandwidthMonotoneInBlocks(t *testing.T) {
	c := SummitCopyCost()
	prev := 0.0
	for _, p := range c.Fig8() {
		if p.H2DBW < prev {
			t.Errorf("H2D bandwidth fell at %d blocks", p.Blocks)
		}
		prev = p.H2DBW
		if p.D2HBW > p.H2DBW {
			t.Errorf("D2H (write) should not exceed H2D (read) at %d blocks", p.Blocks)
		}
	}
}

func TestPaper18432ChunkSizeRegime(t *testing.T) {
	// §4.2: for the 18432³ problem the contiguous extent is 18 KB and
	// 165888 chunks must move; both fast methods stay in the tens of
	// milliseconds while many-memcpy exceeds a second.
	c := SummitCopyCost()
	total := 165888.0 * 18e3
	many := c.ManyMemcpyTime(total, 18e3)
	m2d := c.Memcpy2DTime(total, 18e3)
	if many < 1.0 {
		t.Errorf("many-memcpy %g s, expected > 1 s", many)
	}
	if m2d > 0.2 {
		t.Errorf("memcpy2D %g s, expected well under 0.2 s", m2d)
	}
}

func TestCostModelPanicsOnBadChunk(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	SummitCopyCost().ManyMemcpyTime(100, 1000)
}

func TestFig7CoversPaperRange(t *testing.T) {
	pts := SummitCopyCost().Fig7()
	if len(pts) < 10 {
		t.Fatalf("sweep too short: %d points", len(pts))
	}
	if pts[0].ChunkBytes > 2.3e3 || pts[len(pts)-1].ChunkBytes < 14e6 {
		t.Errorf("sweep range [%g, %g] misses the paper's axis",
			pts[0].ChunkBytes, pts[len(pts)-1].ChunkBytes)
	}
	_ = math.Pi
}

func TestDeviceErrorIsStickyAndSurfacesAtSync(t *testing.T) {
	d := NewDevice(0)
	defer d.Close()
	s := d.NewStream("compute", 16)
	var ranAfter atomic.Bool
	s.Enqueue(&Op{Kind: "bad-kernel", Run: func() { panic("illegal memory access") }})
	s.Enqueue(&Op{Kind: "subsequent", Run: func() { ranAfter.Store(true) }})
	defer func() {
		e := recover()
		if e == nil {
			t.Error("Synchronize did not surface the device error")
		}
		if ranAfter.Load() {
			t.Error("work after the failing kernel still executed")
		}
		if s.Err() == nil {
			t.Error("sticky error cleared")
		}
	}()
	s.Synchronize()
}

func TestDeviceErrorDoesNotHangEvents(t *testing.T) {
	// Events recorded after a failure must still complete so that
	// cross-stream waiters and the host never deadlock.
	d := NewDevice(0)
	defer d.Close()
	s := d.NewStream("compute", 16)
	s.Enqueue(&Op{Kind: "bad", Run: func() { panic("boom") }})
	ev := NewEvent()
	s.RecordEvent(ev)
	done := make(chan struct{})
	go func() { ev.Synchronize(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("event after device error never completed")
	}
}

func TestHealthyStreamHasNoError(t *testing.T) {
	d := NewDevice(0)
	defer d.Close()
	s := d.NewStream("ok", 16)
	s.Enqueue(&Op{Kind: "fine", Run: func() {}})
	s.Synchronize()
	if s.Err() != nil {
		t.Errorf("unexpected error %v", s.Err())
	}
	if s.Name() != "ok" {
		t.Error("name")
	}
}
