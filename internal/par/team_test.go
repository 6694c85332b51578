package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// forEach runs body(i) for every i in [0, n) over the team's chunks.
func forEach(tm *Team, n int, body func(i int)) {
	tm.ForWorkers(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForWorkers runs every iteration exactly once for any team and trip
// count.
func TestForCoversAllIterations(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		tm := NewTeam(workers)
		for _, n := range []int{0, 1, 3, 10, 100} {
			hits := make([]int32, n)
			forEach(tm, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Errorf("workers=%d n=%d: iteration %d ran %d times", workers, n, i, h)
				}
			}
		}
		tm.Close()
	}
}

// A one-worker team runs the region as one chunk on the caller, in
// serial iteration order.
func TestSerialPoolNoGoroutines(t *testing.T) {
	tm := NewTeam(1)
	defer tm.Close()
	var order []int
	forEach(tm, 5, func(i int) { order = append(order, i) })
	if len(order) != 5 {
		t.Fatalf("ran %d iterations, want 5", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Errorf("serial order broken: %v", order)
		}
	}
}

// ForWorkers' static chunks partition [0, n) for any team size.
func TestForChunkedPartitions(t *testing.T) {
	f := func(seedN uint8, seedW uint8) bool {
		n := int(seedN%50) + 1
		tm := NewTeam(int(seedW%6) + 1)
		defer tm.Close()
		covered := make([]int32, n)
		tm.ForWorkers(n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
		})
		for _, c := range covered {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Chunks are static and contiguous: worker ids never decrease along
// the iteration space, so per-worker scratch sees one range.
func TestForWorkersDistinctScratch(t *testing.T) {
	tm := NewTeam(4)
	defer tm.Close()
	n := 23
	used := make([]int32, n)
	workerOf := make([]int32, n)
	tm.ForWorkers(n, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&used[i], 1)
			atomic.StoreInt32(&workerOf[i], int32(w))
		}
	})
	for i, u := range used {
		if u != 1 {
			t.Errorf("iteration %d ran %d times", i, u)
		}
	}
	for i := 1; i < n; i++ {
		if workerOf[i] < workerOf[i-1] {
			t.Errorf("non-contiguous chunks: %v", workerOf)
		}
	}
}

func TestTeamPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewTeam(0)
}

func TestTeamForCoversRange(t *testing.T) {
	for _, w := range []int{1, 2, 4, 7} {
		tm := NewTeam(w)
		for _, n := range []int{0, 1, 3, 8, 100, 1000} {
			got := make([]int32, n)
			var mu sync.Mutex
			tm.ForWorkers(n, func(_, lo, hi int) {
				mu.Lock()
				for i := lo; i < hi; i++ {
					got[i]++
				}
				mu.Unlock()
			})
			for i, v := range got {
				if v != 1 {
					t.Fatalf("w=%d n=%d: index %d visited %d times", w, n, i, v)
				}
			}
		}
		tm.Close()
	}
}

func TestTeamForMatchesSerial(t *testing.T) {
	tm := NewTeam(4)
	defer tm.Close()
	const n = 257
	out := make([]float64, n)
	forEach(tm, n, func(i int) { out[i] = float64(i * i) })
	for i := range out {
		if out[i] != float64(i*i) {
			t.Fatalf("out[%d] = %v", i, out[i])
		}
	}
}

func TestTeamWorkerIndexBounds(t *testing.T) {
	tm := NewTeam(4)
	defer tm.Close()
	var mu sync.Mutex
	seen := map[int]bool{}
	tm.ForWorkers(100, func(w, lo, hi int) {
		if w < 0 || w >= tm.Size() {
			t.Errorf("worker index %d out of range", w)
		}
		mu.Lock()
		seen[w] = true
		mu.Unlock()
	})
	if len(seen) == 0 {
		t.Fatal("no chunks ran")
	}
}

// Team regions must serialize: concurrent dispatch from many
// goroutines may interleave regions but never corrupt chunk state.
func TestTeamConcurrentDispatch(t *testing.T) {
	tm := NewTeam(3)
	defer tm.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				buf := make([]int32, 64)
				tm.ForWorkers(len(buf), func(_, lo, hi int) {
					for i := lo; i < hi; i++ {
						buf[i]++
					}
				})
				for i, v := range buf {
					if v != 1 {
						t.Errorf("index %d visited %d times", i, v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestTeamReuseNoGoroutineChurn(t *testing.T) {
	tm := NewTeam(4)
	defer tm.Close()
	sink := make([]float64, 1024)
	body := func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			sink[i] += 1
		}
	}
	tm.ForWorkers(len(sink), body) // warm up
	// Steady-state dispatch with a precomputed body must not allocate
	// (AllocsPerRun pins GOMAXPROCS to 1, but helpers still run).
	avg := testing.AllocsPerRun(100, func() {
		tm.ForWorkers(len(sink), body)
	})
	if avg != 0 {
		t.Fatalf("steady-state ForWorkers allocates %.2f per run", avg)
	}
}

func TestTeamClosePanicsOnUse(t *testing.T) {
	tm := NewTeam(2)
	tm.Close()
	tm.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dispatch after Close")
		}
	}()
	tm.ForWorkers(10, func(_, lo, hi int) {})
}

func TestTeamOccupancyAccounting(t *testing.T) {
	r0 := regions.Load()
	tm := NewTeam(4)
	defer tm.Close()
	var mu sync.Mutex
	maxSeen := 0
	tm.ForWorkers(4, func(_, lo, hi int) {
		b := int(busyWorkers.Load())
		mu.Lock()
		if b > maxSeen {
			maxSeen = b
		}
		mu.Unlock()
	})
	if regions.Load() != r0+1 {
		t.Fatalf("regions = %d, want %d", regions.Load(), r0+1)
	}
	if maxSeen < 1 {
		t.Fatal("busyWorkers never observed ≥1 inside a region")
	}
	if busyWorkers.Load() != 0 {
		t.Fatalf("busyWorkers = %d after region", busyWorkers.Load())
	}
	if peakBusy.Load() < 1 {
		t.Fatal("peakBusy not updated")
	}
}
