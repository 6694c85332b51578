package mpi

import (
	"sync"
	"testing"
	"time"
)

// TestGetClearsDeliveredSlot is the regression test for the mailbox
// removal leak: append(m.q[:i], m.q[i+1:]...) left a duplicate
// reference to the delivered payload in the backing array's vacated
// tail slot, retaining large pencil buffers past delivery.
func TestGetClearsDeliveredSlot(t *testing.T) {
	w := newWorld(2, nil, nil)
	m := w.boxes[0*2+1] // src 0 → dst 1
	first := []float64{1, 2, 3}
	second := []float64{4, 5, 6}
	m.put(message{key: matchKey{tag: 1}, data: first})
	m.put(message{key: matchKey{tag: 2}, data: second})

	// Alias the backing array before removal so the vacated tail slot
	// stays observable after the queue shrinks.
	backing := m.q[:2]

	got := m.get(matchKey{tag: 1})
	if &got.([]float64)[0] != &first[0] {
		t.Fatal("get returned the wrong message")
	}
	if len(m.q) != 1 {
		t.Fatalf("queue length after removal = %d, want 1", len(m.q))
	}
	if backing[1].data != nil {
		t.Fatal("vacated tail slot still references the shifted payload: delivered buffers are retained")
	}
	if backing[0].data == nil {
		t.Fatal("surviving message was clobbered by the slot zeroing")
	}
}

// TestDeliverWakesOnlyMatchingWaiter pins the thundering-herd fix:
// with N goroutines each blocked on a distinct tag, every delivery
// must wake only the goroutine that can consume it. The old
// cv.Broadcast() woke all N waiters per message.
func TestDeliverWakesOnlyMatchingWaiter(t *testing.T) {
	const n = 16
	w := newWorld(2, nil, nil)
	m := w.boxes[0*2+1]

	before := spuriousWakeups.Load()
	var wg sync.WaitGroup
	results := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(tag int) {
			defer wg.Done()
			results[tag] = m.get(matchKey{tag: tag})
		}(i)
	}
	// Wait until every consumer has parked on its own condition
	// variable before delivering anything.
	for {
		m.mu.Lock()
		parked := len(m.waiters)
		m.mu.Unlock()
		if parked == n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < n; i++ {
		m.put(message{key: matchKey{tag: i}, data: i})
	}
	wg.Wait()
	for i, r := range results {
		if r != i {
			t.Fatalf("waiter %d got %v", i, r)
		}
	}
	if d := spuriousWakeups.Load() - before; d != 0 {
		t.Errorf("deliveries caused %d spurious wakeups, want 0 (per-key signal should wake only the matching waiter)", d)
	}
}

// BenchmarkMailboxFanIn stresses one mailbox with P consumers on
// distinct tags and reports the spurious wakeups per delivered
// message. With the old broadcast wakeup this is O(P); with per-key
// signalling it is ~0.
func BenchmarkMailboxFanIn(b *testing.B) {
	const consumers = 8
	w := newWorld(2, nil, nil)
	m := w.boxes[0*2+1]

	before := spuriousWakeups.Load()
	var wg sync.WaitGroup
	per := (b.N + consumers - 1) / consumers
	b.ResetTimer()
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func(tag int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				m.get(matchKey{tag: tag})
			}
		}(i)
	}
	for j := 0; j < per; j++ {
		for i := 0; i < consumers; i++ {
			m.put(message{key: matchKey{tag: i}, data: j})
		}
	}
	wg.Wait()
	b.StopTimer()
	total := int64(per) * consumers
	b.ReportMetric(float64(spuriousWakeups.Load()-before)/float64(total), "spurious-wakeups/op")
}
