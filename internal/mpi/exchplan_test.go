package mpi

import (
	"fmt"
	"testing"

	"repro/internal/metrics"
)

// The fused exchange must reproduce Alltoall's semantics when the
// gather performs the equivalent block moves: after Do, position
// [src*bs:(src+1)*bs] of each rank's destination holds what rank src
// published at [me*bs:(me+1)*bs].
func TestExchangePlanAlltoallSemantics(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		p := p
		TryRunOrFatal(t, p, func(c *Comm) {
			const bs = 3
			src := make([]int, bs*p)
			for i := range src {
				src[i] = c.Rank()*1000 + i
			}
			dst := make([]int, bs*p)
			want := make([]int, bs*p)
			Alltoall(c, src, want)

			me := c.Rank()
			pl := NewExchangePlan[int](c, bs*p)
			defer pl.Free()
			pl.Do(src, func(srcs [][]int) {
				for s := 0; s < p; s++ {
					copy(dst[s*bs:(s+1)*bs], srcs[s][me*bs:(me+1)*bs])
				}
			})
			for i := range want {
				if dst[i] != want[i] {
					panic(fmt.Sprintf("rank %d: fused exchange differs at %d: %d vs %d", me, i, dst[i], want[i]))
				}
			}
		})
	}
}

// TryRunOrFatal runs fn under TryRun and fails the test on error.
func TryRunOrFatal(t *testing.T, p int, fn func(*Comm)) {
	t.Helper()
	if err := TryRun(p, fn); err != nil {
		t.Fatal(err)
	}
}

// Publication must be cycle-accurate: a rank republises a different
// slab each Do and peers must never observe a stale pointer.
func TestExchangePlanRepublishPerCycle(t *testing.T) {
	const p, cycles = 3, 8
	TryRunOrFatal(t, p, func(c *Comm) {
		me := c.Rank()
		pl := NewExchangePlan[float64](c, p)
		defer pl.Free()
		a, b := make([]float64, p), make([]float64, p)
		got := make([]float64, p)
		for cy := 0; cy < cycles; cy++ {
			src := a
			if cy%2 == 1 {
				src = b
			}
			for i := range src {
				src[i] = float64(100*cy + me)
			}
			pl.Do(src, func(srcs [][]float64) {
				for s := 0; s < p; s++ {
					got[s] = srcs[s][me]
				}
			})
			for s := 0; s < p; s++ {
				if got[s] != float64(100*cy+s) {
					panic(fmt.Sprintf("rank %d cycle %d: stale slab from %d: %v", me, cy, s, got[s]))
				}
			}
		}
	})
}

// Steady-state Do must not allocate: the publication is a slice store
// and the barriers reuse the plan's own barrier.
func TestExchangePlanZeroAllocSteadyState(t *testing.T) {
	const p = 4
	TryRunOrFatal(t, p, func(c *Comm) {
		me := c.Rank()
		pl := NewExchangePlan[complex128](c, 64*p)
		defer pl.Free()
		src := make([]complex128, 64*p)
		dst := make([]complex128, 64*p)
		gather := func(srcs [][]complex128) {
			for s := 0; s < p; s++ {
				copy(dst[s*64:(s+1)*64], srcs[s][me*64:(me+1)*64])
			}
		}
		cycle := func() { pl.Do(src, gather) }
		for i := 0; i < 3; i++ {
			cycle()
		}
		if me == 0 {
			avg := testing.AllocsPerRun(10, cycle)
			if avg != 0 {
				panic(fmt.Sprintf("fused exchange allocates %.2f per Do", avg))
			}
		} else {
			for i := 0; i < 11; i++ {
				cycle()
			}
		}
	})
}

// Wire accounting: each Do charges the remote-read share of the slab
// (everything but the local 1/P), the off-diagonal convention of
// Alltoall, plus one exchange.calls tick.
func TestExchangePlanWireAccounting(t *testing.T) {
	const p, slab = 4, 64
	reg := metrics.NewRegistry()
	reg.SetOn(true)
	err := RunWith(p, reg, func(c *Comm) {
		pl := NewExchangePlan[complex128](c, slab)
		defer pl.Free()
		src := make([]complex128, slab)
		pl.Do(src, func([][]complex128) {})
		pl.Do(src, func([][]complex128) {})
	})
	if err != nil {
		t.Fatal(err)
	}
	wantPer := int64(16 * (slab - slab/p) * 2)
	var total int64
	for r := 0; r < p; r++ {
		total += reg.CounterRank("exchange.bytes", r).Value()
	}
	if total != wantPer*p {
		t.Fatalf("exchange.bytes = %d, want %d", total, wantPer*p)
	}
	var calls int64
	for r := 0; r < p; r++ {
		calls += reg.CounterRank("exchange.calls", r).Value()
	}
	if calls != 2*p {
		t.Fatalf("exchange.calls = %d, want %d", calls, 2*p)
	}
}

func TestExchangePlanUseAfterFreePanics(t *testing.T) {
	err := TryRun(1, func(c *Comm) {
		pl := NewExchangePlan[int](c, 1)
		pl.Free()
		pl.Do([]int{0}, func([][]int) {})
	})
	if err == nil {
		t.Fatal("Do after Free did not panic")
	}
}
