package mpi

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// These tests pin the wait policy of barrier.wait: a world whose ranks
// each have a processor polls for its peers, an oversubscribed one
// parks, sub-communicators wait as their parent does, and nothing the
// park path guarantees (abort, watchdog, reuse) is lost on the way.

// withProcs runs the test at GOMAXPROCS n (the policy reads it when a
// world is built) and restores the old value afterwards. Polling needs
// two real processors, so tests that want a polling world skip on a
// single-CPU machine.
func withProcs(t *testing.T, n int) {
	t.Helper()
	if n > 1 && runtime.NumCPU() < n {
		t.Skipf("needs %d CPUs to build a polling world, have %d", n, runtime.NumCPU())
	}
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// sweepSink keeps the skew loops' sums alive.
var sweepSink atomic.Int64

// skewedBarriers runs iters barriers on c with rank 1 arriving late by
// a memory sweep each time, so rank 0 is the waiting rank.
func skewedBarriers(c *Comm, iters int) {
	buf := make([]float64, 1<<14)
	for i := 0; i < iters; i++ {
		if c.Rank() == 1 {
			s := 0.0
			for j := range buf {
				buf[j] += 1
				s += buf[j]
			}
			sweepSink.Add(int64(s))
		}
		c.Barrier()
	}
}

// waitCounts sums a world's wait counters over its ranks.
func waitCounts(reg *metrics.Registry, p int) (polled, parked int64) {
	for r := 0; r < p; r++ {
		polled += reg.CounterRank("mpi.wait.polled", r).Value()
		parked += reg.CounterRank("mpi.wait.parked", r).Value()
	}
	return
}

func TestWaitPolicyFollowsProcessors(t *testing.T) {
	t.Run("P2onTwoProcsPolls", func(t *testing.T) {
		withProcs(t, 2)
		reg := metrics.NewRegistry()
		var rowPoll, colPoll atomic.Bool
		err := RunWith(2, reg, func(c *Comm) {
			if !c.w.poll {
				panic("2 ranks on 2 processors built a parking world")
			}
			skewedBarriers(c, 400)
			// Sub-communicators of a polling world poll.
			row, col := c.CartGrid(1, 2)
			if c.Rank() == 0 {
				rowPoll.Store(row.w.poll)
				colPoll.Store(col.w.poll)
			}
			skewedBarriers(row, 100)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rowPoll.Load() || !colPoll.Load() {
			t.Errorf("CartGrid of a polling world: row polls %v, col polls %v, want both", rowPoll.Load(), colPoll.Load())
		}
		polled, parked := waitCounts(reg, 2)
		if polled == 0 {
			t.Errorf("mpi.wait.polled = 0 after 500 skewed barriers in a polling world (parked %d)", parked)
		}
		// A wait parks only when the peer is more than pollFor late: a
		// few on a quiet machine, any share of them under -race or when
		// other processes hold the peer's CPU, so the count is reported,
		// not bounded.
		t.Logf("polling world: %d waits polled, %d parked", polled, parked)
		if got := reg.GaugeRank("mpi.wait.policy", 0).Value(); got != 1 {
			t.Errorf("mpi.wait.policy = %v on a polling world, want 1", got)
		}
	})
	t.Run("P4onTwoProcsParks", func(t *testing.T) {
		withProcs(t, 2)
		reg := metrics.NewRegistry()
		var subPoll atomic.Bool
		err := RunWith(4, reg, func(c *Comm) {
			if c.w.poll {
				panic("4 ranks on 2 processors built a polling world")
			}
			skewedBarriers(c, 100)
			// A 2-rank sub-communicator would fit the processors on its
			// own, but its ranks still share them with the other row's.
			row, col := c.CartGrid(2, 2)
			if row.w.poll || col.w.poll {
				subPoll.Store(true)
			}
			skewedBarriers(row, 50)
			skewedBarriers(col, 50)
		})
		if err != nil {
			t.Fatal(err)
		}
		if subPoll.Load() {
			t.Error("a sub-communicator of a parking world polls")
		}
		polled, parked := waitCounts(reg, 4)
		if polled != 0 {
			t.Errorf("mpi.wait.polled = %d in a parking world, want 0", polled)
		}
		if parked == 0 {
			t.Error("mpi.wait.parked = 0 in a parking world")
		}
		if got := reg.GaugeRank("mpi.wait.policy", 0).Value(); got != 0 {
			t.Errorf("mpi.wait.policy = %v on a parking world, want 0", got)
		}
	})
	t.Run("P2onOneProcParks", func(t *testing.T) {
		withProcs(t, 1)
		reg := metrics.NewRegistry()
		err := RunWith(2, reg, func(c *Comm) {
			if c.w.poll {
				panic("2 ranks on 1 processor built a polling world")
			}
			skewedBarriers(c, 100)
		})
		if err != nil {
			t.Fatal(err)
		}
		if polled, _ := waitCounts(reg, 2); polled != 0 {
			t.Errorf("mpi.wait.polled = %d in a parking world, want 0", polled)
		}
	})
}

// TestAbortReachesPollingRank: a rank panics while its peer polls in
// the world barrier, in an ExchangePlan.Do and in a block-copy Do. The
// poller must see the abort on its next load — a poll loop that waited
// out its budget first would leave ≈ pollFor later — and TryRun must
// return the original panic with no goroutine left behind.
func TestAbortReachesPollingRank(t *testing.T) {
	withProcs(t, 2)
	ops := []struct {
		name  string
		setup func(c *Comm) func() // collective plan build; returns the blocking op
	}{
		{"Barrier", func(c *Comm) func() { return c.Barrier }},
		{"ExchangePlanDo", func(c *Comm) func() {
			pl := NewExchangePlan[float64](c, 2)
			src := make([]float64, 2)
			return func() { pl.Do(src, func([][]float64) {}) }
		}},
		{"A2APlanDo", func(c *Comm) func() {
			pl := NewExchangePlan[float64](c, 2)
			send, recv := make([]float64, 2), make([]float64, 2)
			gather := blockCopy(recv, c.Rank(), 1)
			return func() { pl.Do(send, gather) }
		}},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			const reps = 15
			before := runtime.NumGoroutine()
			lat := make([]time.Duration, 0, reps)
			for i := 0; i < reps; i++ {
				var died, seen time.Time
				err := TryRun(2, func(c *Comm) {
					do := op.setup(c)
					do() // a healthy round; both ranks leave it together
					if c.Rank() == 1 {
						// Let rank 0 get into its poll loop, then die.
						for t0 := time.Now(); time.Since(t0) < 50*time.Microsecond; {
						}
						died = time.Now()
						panic("boom while the peer polls")
					}
					defer func() { seen = time.Now() }()
					do()
				})
				var re *RankError
				if !errors.As(err, &re) || re.Rank != 1 || !strings.Contains(err.Error(), "boom while the peer polls") {
					t.Fatalf("TryRun = %v, want rank 1's original panic", err)
				}
				lat = append(lat, seen.Sub(died))
			}
			slices.Sort(lat)
			med := lat[reps/2]
			t.Logf("abort → poller exit: median %v over %d runs", med, reps)
			if med > pollFor/2 {
				t.Errorf("median abort → poller exit %v (all %v): the poller waits out its %v budget", med, lat, pollFor)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%d goroutines after the aborted runs, %d before", n, before)
			}
		})
	}
}

// TestStallNamesBarrierPastPollBudget: polling only delays a blocked
// rank's registration by the budget; the per-operation deadline still
// names the rank stuck in a barrier whose peer never arrives, and the
// deadlock detector still fires when every rank sits in a barrier.
func TestStallNamesBarrierPastPollBudget(t *testing.T) {
	withProcs(t, 2)
	t.Run("Deadline", func(t *testing.T) {
		err := TryRun(2, func(c *Comm) {
			if c.Rank() == 1 {
				time.Sleep(400 * time.Millisecond) // alive, computing, never arriving in time
			}
			c.Barrier()
		}, WithWatchdog(Watchdog{Deadline: 60 * time.Millisecond, Poll: 5 * time.Millisecond}))
		var st *StallError
		if !errors.As(err, &st) {
			t.Fatalf("error %T (%v) is not *StallError", err, err)
		}
		if st.Rank != 0 || st.Op != opBarrier || st.Deadlock {
			t.Fatalf("StallError = %+v, want rank 0 stalled in barrier", st)
		}
		if st.Waited < 60*time.Millisecond {
			t.Errorf("Waited = %v, want at least the 60ms deadline", st.Waited)
		}
	})
	t.Run("Deadlock", func(t *testing.T) {
		err := TryRun(2, func(c *Comm) {
			pl := NewExchangePlan[float64](c, 2)
			if c.Rank() == 0 {
				c.Barrier() // rank 1 is in the plan's barrier instead
				return
			}
			pl.Do(make([]float64, 2), func([][]float64) {})
		}, fastWatch())
		var st *StallError
		if !errors.As(err, &st) {
			t.Fatalf("error %T (%v) is not *StallError", err, err)
		}
		if !st.Deadlock || st.Op != opBarrier {
			t.Fatalf("StallError = %+v, want a deadlock in barrier", st)
		}
	})
}

// TestBarrierReusableAcrossPollAndPark drives one barrier through 10⁴
// phases in a polling world with random skew on either side of the
// budget, so waits end by poll, by park, and by the release landing
// between the two. A lost wake-up hangs the run (the watchdog turns
// that into an error); a skipped or repeated phase breaks the arrival
// invariant checked after every barrier.
func TestBarrierReusableAcrossPollAndPark(t *testing.T) {
	withProcs(t, 2)
	const phases = 10000
	reg := metrics.NewRegistry()
	var arrived [2]atomic.Int64
	err := RunWith(2, reg, func(c *Comm) {
		// Both ranks draw the same sequence, so they agree on who is
		// late in each phase and by how much.
		rng := rand.New(rand.NewSource(24))
		me, peer := c.Rank(), 1-c.Rank()
		for i := int64(1); i <= phases; i++ {
			late, skew := rng.Intn(2), time.Duration(0)
			if rng.Intn(50) == 0 {
				skew = pollFor/2 + time.Duration(rng.Int63n(int64(pollFor)))
			}
			if late == me && skew > 0 {
				time.Sleep(skew)
			}
			arrived[me].Store(i)
			c.Barrier()
			// The peer has entered phase i and cannot have left phase
			// i+1, which needs this rank.
			if got := arrived[peer].Load(); got != i && got != i+1 {
				panic(errors.New("barrier let a rank through early or twice"))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	polled, parked := waitCounts(reg, 2)
	if polled == 0 || parked == 0 {
		t.Errorf("polled %d, parked %d: the skew did not straddle the poll budget", polled, parked)
	}
	// Two ranks: every phase has exactly one rank that waited.
	if polled+parked != phases {
		t.Errorf("polled %d + parked %d waits in %d two-rank phases", polled, parked, phases)
	}
}
