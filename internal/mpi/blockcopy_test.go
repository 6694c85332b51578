package mpi

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/metrics"
)

// The staged all-to-all is an ExchangePlan whose gather copies blocks
// (exchange.Stage runs it under Staged): the registered send buffer is
// published, and recv block s receives block me of rank s's buffer.
// These tests pin that gather as the persistent all-to-all.

// blockCopy returns the block-copy gather of rank me into recv, bs
// elements a block.
func blockCopy[T any](recv []T, me, bs int) func(srcs [][]T) {
	return func(srcs [][]T) {
		for s, src := range srcs {
			copy(recv[s*bs:(s+1)*bs], src[me*bs:(me+1)*bs])
		}
	}
}

// A plan exchange must be element-for-element identical to Alltoall.
func TestA2APlanMatchesAlltoall(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			const bs = 5
			Run(p, func(c *Comm) {
				send := make([]complex128, p*bs)
				recvPlan := make([]complex128, p*bs)
				recvRef := make([]complex128, p*bs)
				plan := NewExchangePlan[complex128](c, p*bs)
				gather := blockCopy(recvPlan, c.Rank(), bs)
				for iter := 0; iter < 3; iter++ {
					for i := range send {
						send[i] = complex(float64(c.Rank()*1000+iter*100+i), float64(iter))
					}
					plan.Do(send, gather)
					Alltoall(c, send, recvRef)
					for i := range recvPlan {
						if recvPlan[i] != recvRef[i] {
							panic(fmt.Sprintf("rank %d iter %d: plan[%d]=%v ref=%v",
								c.Rank(), iter, i, recvPlan[i], recvRef[i]))
						}
					}
				}
				plan.Free()
			})
		})
	}
}

// Two plans on the same communicator must keep separate shared state.
func TestA2APlanTwoPlansIndependent(t *testing.T) {
	const p, bs = 3, 4
	Run(p, func(c *Comm) {
		sa := make([]float64, p*bs)
		ra := make([]float64, p*bs)
		sb := make([]float64, p*bs)
		rb := make([]float64, p*bs)
		pa := NewExchangePlan[float64](c, p*bs)
		pb := NewExchangePlan[float64](c, p*bs)
		for i := range sa {
			sa[i] = float64(c.Rank()*100 + i)
			sb[i] = -sa[i]
		}
		pa.Do(sa, blockCopy(ra, c.Rank(), bs))
		pb.Do(sb, blockCopy(rb, c.Rank(), bs))
		for src := 0; src < p; src++ {
			for j := 0; j < bs; j++ {
				want := float64(src*100 + c.Rank()*bs + j)
				if ra[src*bs+j] != want {
					panic(fmt.Sprintf("rank %d: plan A got %v want %v", c.Rank(), ra[src*bs+j], want))
				}
				if rb[src*bs+j] != -want {
					panic(fmt.Sprintf("rank %d: plan B got %v want %v", c.Rank(), rb[src*bs+j], -want))
				}
			}
		}
		pa.Free()
		pb.Free()
	})
}

// A rank panicking while peers are blocked inside Do must cascade the
// abort through the plan's private barrier instead of deadlocking.
func TestA2APlanAbortWakesBlockedRanks(t *testing.T) {
	const p = 4
	err := TryRun(p, func(c *Comm) {
		send := make([]float64, p)
		recv := make([]float64, p)
		plan := NewExchangePlan[float64](c, p)
		if c.Rank() == 2 {
			panic(errors.New("boom"))
		}
		plan.Do(send, blockCopy(recv, c.Rank(), 1)) // ranks 0,1,3 block in the entry barrier forever
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 2 {
		t.Fatalf("expected RankError from rank 2, got %v", err)
	}
}

// Steady-state Do must not allocate, even with the default watchdog
// registering every barrier wait.
func TestA2APlanSteadyStateAllocFree(t *testing.T) {
	const p, bs, runs = 4, 64, 200
	Run(p, func(c *Comm) {
		send := make([]complex128, p*bs)
		recv := make([]complex128, p*bs)
		for i := range send {
			send[i] = complex(float64(i), 0)
		}
		plan := NewExchangePlan[complex128](c, p*bs)
		gather := blockCopy(recv, c.Rank(), bs)
		do := func() { plan.Do(send, gather) }
		for w := 0; w < 3; w++ {
			do() // warm up (metric handles, watchdog freelist)
		}
		if c.Rank() == 0 {
			// AllocsPerRun executes the body runs+1 times; peers must
			// match that call count for the collective to line up.
			avg := testing.AllocsPerRun(runs, do)
			if avg > 0.05 {
				panic(fmt.Sprintf("steady-state block-copy Do allocates %.3f per call", avg))
			}
		} else {
			for i := 0; i < runs+1; i++ {
				do()
			}
		}
		plan.Free()
	})
}

// Wire bytes must follow the same convention as Alltoall: everything
// but the diagonal block, charged to the sender through SetWire.
func TestA2APlanBytesAccounting(t *testing.T) {
	const p, bs = 3, 8
	reg := metrics.NewRegistry()
	err := RunWith(p, reg, func(c *Comm) {
		send := make([]float64, p*bs)
		recv := make([]float64, p*bs)
		plan := NewExchangePlan[float64](c, p*bs)
		plan.SetWire((p - 1) * bs)
		plan.Do(send, blockCopy(recv, c.Rank(), bs))
		plan.Free()
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for r := 0; r < p; r++ {
		total += reg.CounterRank("exchange.bytes", r).Value()
	}
	want := int64(p) * int64(p-1) * int64(bs) * 8
	if total != want {
		t.Fatalf("exchange bytes = %d, want %d", total, want)
	}
}
