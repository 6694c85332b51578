package mpi

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// Property coverage for the asynchrony-tolerant exchange: with no
// injected delay DoBounded must be bitwise identical to Do, under
// injected stragglers the per-peer staleness must never exceed the
// bound, and the steady state must stay allocation-free.

// With zero injected delay and a generous deadline every rank reaches
// every epoch inside the wait, so DoBounded must produce bitwise the
// same gathered table as the synchronous Do over the same sources.
func TestExchangePlanBoundedMatchesDoZeroDelay(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		p := p
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			TryRunOrFatal(t, p, func(c *Comm) {
				const bs, cycles = 3, 6
				me := c.Rank()
				sync := NewExchangePlan[int](c, bs*p)
				defer sync.Free()
				at := NewExchangePlanBounded[int](c, bs*p, 1, 2*time.Second)
				defer at.Free()
				src := make([]int, bs*p)
				want := make([]int, bs*p)
				got := make([]int, bs*p)
				gatherInto := func(dst []int) func(srcs [][]int) {
					return func(srcs [][]int) {
						for s := 0; s < p; s++ {
							copy(dst[s*bs:(s+1)*bs], srcs[s][me*bs:(me+1)*bs])
						}
					}
				}
				for cy := 0; cy < cycles; cy++ {
					for i := range src {
						src[i] = me*10000 + cy*100 + i
					}
					sync.Do(src, gatherInto(want))
					at.DoBounded(src, gatherInto(got), 1)
					for i := range want {
						if got[i] != want[i] {
							panic(fmt.Sprintf("rank %d cycle %d: AT differs at %d: %d vs %d",
								me, cy, i, got[i], want[i]))
						}
					}
				}
				max, _, slabs, calls := at.TakeStaleness()
				if max != 0 || slabs != 0 {
					panic(fmt.Sprintf("rank %d: zero-delay run observed staleness max=%d slabs=%d", me, max, slabs))
				}
				if calls != cycles {
					panic(fmt.Sprintf("rank %d: TakeStaleness calls=%d want %d", me, calls, cycles))
				}
			})
		})
	}
}

// Under a seeded per-rank delay and a tiny deadline, every slab a rank
// gathers must be at most maxStale epochs old and never from the
// future; TakeStaleness must agree.
func TestExchangePlanBoundedStalenessNeverExceedsBound(t *testing.T) {
	const p, maxStale, cycles = 4, 2, 16
	TryRunOrFatal(t, p, func(c *Comm) {
		me := c.Rank()
		pl := NewExchangePlanBounded[float64](c, p, maxStale, 200*time.Microsecond)
		defer pl.Free()
		src := make([]float64, p)
		for e := 1; e <= cycles; e++ {
			if me == p-1 {
				time.Sleep(2 * time.Millisecond) // deterministic straggler
			}
			for i := range src {
				src[i] = float64(e)
			}
			pl.DoBounded(src, func(srcs [][]float64) {
				for r := 0; r < p; r++ {
					pe := int(srcs[r][0])
					if pe > e || e-pe > maxStale {
						panic(fmt.Sprintf("rank %d epoch %d: slab from rank %d at epoch %d violates bound %d",
							me, e, r, pe, maxStale))
					}
				}
			}, maxStale)
		}
		max, sum, slabs, calls := pl.TakeStaleness()
		if max > maxStale {
			panic(fmt.Sprintf("rank %d: TakeStaleness max=%d exceeds bound %d", me, max, maxStale))
		}
		if calls != cycles {
			panic(fmt.Sprintf("rank %d: calls=%d want %d", me, calls, cycles))
		}
		if slabs > 0 && sum < int64(slabs) {
			panic(fmt.Sprintf("rank %d: sum=%d inconsistent with slabs=%d", me, sum, slabs))
		}
	})
}

// The tentpole trade: a straggler that provably stalls the synchronous
// path (the per-op deadline fires on the plan barrier) is absorbed by
// the bounded path within its staleness budget — same delay schedule,
// no watchdog stall, and the observed staleness stays within bound.
func TestExchangePlanBoundedProgressWhereSyncStalls(t *testing.T) {
	const p, cycles = 3, 3
	wd := Watchdog{Deadline: 50 * time.Millisecond, Poll: 5 * time.Millisecond}
	straggle := func(c *Comm, e int) {
		if c.Rank() == p-1 && e == 2 {
			time.Sleep(150 * time.Millisecond)
		}
	}

	err := TryRun(p, func(c *Comm) {
		pl := NewExchangePlan[int](c, p)
		defer pl.Free()
		src := make([]int, p)
		for e := 1; e <= cycles; e++ {
			straggle(c, e)
			pl.Do(src, func([][]int) {})
		}
	}, WithWatchdog(wd))
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("synchronous run: err = %v, want StallError", err)
	}

	err = TryRun(p, func(c *Comm) {
		pl := NewExchangePlanBounded[int](c, p, 2, time.Millisecond)
		defer pl.Free()
		src := make([]int, p)
		for e := 1; e <= cycles; e++ {
			straggle(c, e)
			pl.DoBounded(src, func([][]int) {}, 2)
		}
		if max, _, _, _ := pl.TakeStaleness(); max > 2 {
			panic(fmt.Sprintf("rank %d: staleness %d exceeds bound", c.Rank(), max))
		}
	}, WithWatchdog(wd))
	if err != nil {
		t.Fatalf("bounded run with the same straggler: err = %v, want progress", err)
	}
}

// Steady-state DoBounded must not allocate: publication is a copy into
// a plan-owned ring slot, the waits are sleep-polls, and the gather
// table is a reused slice.
func TestExchangePlanBoundedZeroAllocSteadyState(t *testing.T) {
	const p = 4
	TryRunOrFatal(t, p, func(c *Comm) {
		me := c.Rank()
		pl := NewExchangePlanBounded[complex128](c, 64*p, 1, time.Second)
		defer pl.Free()
		src := make([]complex128, 64*p)
		dst := make([]complex128, 64*p)
		gather := func(srcs [][]complex128) {
			for s := 0; s < p; s++ {
				copy(dst[s*64:(s+1)*64], srcs[s][me*64:(me+1)*64])
			}
		}
		cycle := func() { pl.DoBounded(src, gather, 1) }
		for i := 0; i < 3; i++ {
			cycle()
		}
		if me == 0 {
			avg := testing.AllocsPerRun(10, cycle)
			if avg != 0 {
				panic(fmt.Sprintf("bounded exchange allocates %.2f per DoBounded", avg))
			}
		} else {
			for i := 0; i < 11; i++ {
				cycle()
			}
		}
	})
}

// Freeing a plan must drop it from the world's ledger, with its shared
// state and its barrier: a long-running world that builds and tears
// down plans keeps the ledger bounded, and the abort cascade after a
// Free still works (it no longer wakes dead barriers).
func TestPlanRegistriesBoundedAcrossFree(t *testing.T) {
	const p, rounds = 2, 50
	TryRunOrFatal(t, p, func(c *Comm) {
		src := make([]int, p)
		v := make([]float64, 1)
		for i := 0; i < rounds; i++ {
			ep := NewExchangePlan[int](c, p)
			ep.Do(src, func([][]int) {})
			ep.Free()
			rp := NewReducePlan(c, len(v))
			rp.Sum(v)
			rp.Free()
			bp := NewExchangePlanBounded[int](c, p, 1, time.Second)
			bp.DoBounded(src, func([][]int) {}, 1)
			bp.Free()
		}
		c.Barrier() // every rank has Freed round `rounds` before we look
		c.w.mu.Lock()
		np := len(c.w.plans)
		c.w.mu.Unlock()
		if np != 0 {
			panic(fmt.Sprintf("rank %d: after %d create/free rounds plans=%d, want 0",
				c.Rank(), rounds, np))
		}
	})
}

// Abort after Free: a panic raised once a plan has been freed must
// still cascade to peers blocked elsewhere (nothing dangles on the
// freed barrier, and the live wakeup paths are unaffected).
func TestAbortAfterPlanFree(t *testing.T) {
	const p = 2
	err := TryRun(p, func(c *Comm) {
		pl := NewExchangePlan[int](c, p)
		pl.Do(make([]int, p), func([][]int) {})
		pl.Free()
		if c.Rank() == 0 {
			panic("post-free fault")
		}
		c.Barrier() // would hang forever without the cascade
		c.Barrier()
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 0 {
		t.Fatalf("err = %v, want RankError on rank 0", err)
	}
}

// A plan cycling through heterogeneous exchange sites must never
// deliver a slab published for a different site: with the bound equal
// to the cycle length, an accepted slab is either current or the same
// site's publication exactly one cycle earlier. Rank 1 straggles with
// a zero soft deadline so rank 0 runs as far ahead as the hard bound
// allows — the regime where an unlabeled epoch ring would hand out
// the neighbouring site's slab.
func TestDoBoundedSiteConsistency(t *testing.T) {
	const (
		p      = 2
		sites  = 3 // heterogeneous exchange sites per cycle
		cycles = 6
		stale  = 3 // = sites: up to one whole cycle of lag
	)
	TryRunOrFatal(t, p, func(c *Comm) {
		pl := NewExchangePlanBounded[int64](c, p, stale, 0)
		defer pl.Free()
		me := c.Rank()
		src := make([]int64, p)
		epoch := int64(0)
		for cyc := 0; cyc < cycles; cyc++ {
			for sidx := 0; sidx < sites; sidx++ {
				epoch++
				if me == 1 {
					time.Sleep(2 * time.Millisecond)
				}
				for i := range src {
					src[i] = epoch
				}
				pl.SetSite(uint32(sidx))
				e := epoch
				pl.DoBounded(src, func(srcs [][]int64) {
					got := srcs[1-me][0]
					if got != e && got != e-sites {
						panic(fmt.Sprintf("rank %d epoch %d site %d: gathered slab from epoch %d — a different exchange site",
							me, e, sidx, got))
					}
				}, stale)
			}
		}
		if max, _, _, _ := pl.TakeStaleness(); max > 1 {
			panic(fmt.Sprintf("rank %d: accepted age %d exceeds one cycle", me, max))
		}
	})
}

// A bound smaller than the site cycle can never admit stale data:
// every retained slab within the bound was published for a different
// site, so the exchange falls back to a full wait and the gather
// always sees the current epoch — the sub-cycle bound degenerates to
// synchronous behavior rather than corrupting the gather.
func TestDoBoundedSubCycleBoundStaysSynchronous(t *testing.T) {
	const (
		p      = 2
		sites  = 3
		cycles = 5
		stale  = 2 // < sites: no same-site slab inside the bound
	)
	TryRunOrFatal(t, p, func(c *Comm) {
		pl := NewExchangePlanBounded[int64](c, p, stale, 0)
		defer pl.Free()
		me := c.Rank()
		src := make([]int64, p)
		epoch := int64(0)
		for cyc := 0; cyc < cycles; cyc++ {
			for sidx := 0; sidx < sites; sidx++ {
				epoch++
				if me == 1 {
					time.Sleep(time.Millisecond)
				}
				for i := range src {
					src[i] = epoch
				}
				pl.SetSite(uint32(sidx))
				e := epoch
				pl.DoBounded(src, func(srcs [][]int64) {
					if got := srcs[1-me][0]; got != e {
						panic(fmt.Sprintf("rank %d epoch %d site %d: gathered epoch %d, want current",
							me, e, sidx, got))
					}
				}, stale)
			}
		}
		if _, _, slabs, _ := pl.TakeStaleness(); slabs != 0 {
			panic(fmt.Sprintf("rank %d: sub-cycle bound accepted %d stale slabs", me, slabs))
		}
	})
}
