package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestBarrierOrdersRanks(t *testing.T) {
	var before, after int32
	Run(4, func(c *Comm) {
		atomic.AddInt32(&before, 1)
		c.Barrier()
		if n := atomic.LoadInt32(&before); n != 4 {
			t.Errorf("rank %d passed barrier with only %d arrivals", c.rank, n)
		}
		atomic.AddInt32(&after, 1)
	})
	if after != 4 {
		t.Errorf("after=%d", after)
	}
}

func TestBarrierReusable(t *testing.T) {
	Run(3, func(c *Comm) {
		for i := 0; i < 50; i++ {
			c.Barrier()
		}
	})
}

func TestAllgather(t *testing.T) {
	p := 4
	Run(p, func(c *Comm) {
		send := []int{c.rank * 10, c.rank*10 + 1}
		recv := make([]int, p*2)
		Allgather(c, send, recv)
		for r := 0; r < p; r++ {
			if recv[2*r] != r*10 || recv[2*r+1] != r*10+1 {
				t.Errorf("rank %d: allgather %v", c.rank, recv)
			}
		}
	})
}

func TestGatherAtRoot(t *testing.T) {
	p := 4
	Run(p, func(c *Comm) {
		send := []int{c.rank * 2, c.rank*2 + 1}
		var recv []int
		if c.rank == 1 {
			recv = make([]int, p*2)
		}
		Gather(c, 1, send, recv)
		if c.rank == 1 {
			for i := 0; i < p*2; i++ {
				if recv[i] != i {
					t.Errorf("gather[%d] = %d", i, recv[i])
				}
			}
		}
	})
}

func TestAllreduceSumAndMax(t *testing.T) {
	p := 6
	Run(p, func(c *Comm) {
		v := []float64{float64(c.rank), float64(-c.rank)}
		AllreduceSum(c, v)
		if v[0] != 15 || v[1] != -15 {
			t.Errorf("rank %d: sum %v", c.rank, v)
		}
		m := []float64{float64(c.rank)}
		AllreduceMax(c, m)
		if m[0] != 5 {
			t.Errorf("rank %d: max %v", c.rank, m)
		}
	})
}

func TestAlltoallBlockPlacement(t *testing.T) {
	p := 4
	bs := 3
	Run(p, func(c *Comm) {
		send := make([]int, p*bs)
		for dst := 0; dst < p; dst++ {
			for j := 0; j < bs; j++ {
				send[dst*bs+j] = c.rank*1000 + dst*10 + j
			}
		}
		recv := make([]int, p*bs)
		Alltoall(c, send, recv)
		for src := 0; src < p; src++ {
			for j := 0; j < bs; j++ {
				want := src*1000 + c.rank*10 + j
				if recv[src*bs+j] != want {
					t.Errorf("rank %d: recv[%d]=%d want %d", c.rank, src*bs+j, recv[src*bs+j], want)
				}
			}
		}
	})
}

func TestAlltoallIsSelfInverse(t *testing.T) {
	// Two successive all-to-alls with symmetric block layout restore the
	// original data (transpose twice = identity on the block matrix).
	p := 3
	bs := 4
	Run(p, func(c *Comm) {
		orig := make([]complex128, p*bs)
		rng := rand.New(rand.NewSource(int64(c.rank)))
		for i := range orig {
			orig[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		mid := make([]complex128, p*bs)
		back := make([]complex128, p*bs)
		Alltoall(c, orig, mid)
		Alltoall(c, mid, back)
		for i := range orig {
			if back[i] != orig[i] {
				t.Fatalf("rank %d: element %d not restored", c.rank, i)
			}
		}
	})
}

func TestAlltoallv(t *testing.T) {
	p := 3
	Run(p, func(c *Comm) {
		// Rank r sends r+1 copies of its rank to each destination.
		n := c.rank + 1
		sendcounts := make([]int, p)
		senddispls := make([]int, p)
		for d := 0; d < p; d++ {
			sendcounts[d] = n
			senddispls[d] = d * n
		}
		send := make([]int, p*n)
		for i := range send {
			send[i] = c.rank
		}
		recvcounts := make([]int, p)
		recvdispls := make([]int, p)
		total := 0
		for s := 0; s < p; s++ {
			recvcounts[s] = s + 1
			recvdispls[s] = total
			total += s + 1
		}
		recv := make([]int, total)
		Alltoallv(c, send, sendcounts, senddispls, recv, recvcounts, recvdispls)
		for s := 0; s < p; s++ {
			for j := 0; j < s+1; j++ {
				if recv[recvdispls[s]+j] != s {
					t.Errorf("rank %d: from %d got %d", c.rank, s, recv[recvdispls[s]+j])
				}
			}
		}
	})
}

func TestSplitRowCol(t *testing.T) {
	pr, pc := 2, 3
	Run(pr*pc, func(c *Comm) {
		row, col := c.CartGrid(pr, pc)
		if row.Size() != pc || col.Size() != pr {
			t.Errorf("rank %d: row size %d col size %d", c.rank, row.Size(), col.Size())
		}
		wantRowRank := c.rank % pc
		wantColRank := c.rank / pc
		if row.Rank() != wantRowRank {
			t.Errorf("rank %d: row rank %d want %d", c.rank, row.Rank(), wantRowRank)
		}
		if col.Rank() != wantColRank {
			t.Errorf("rank %d: col rank %d want %d", c.rank, col.Rank(), wantColRank)
		}
		// Collectives on the sub-communicators are isolated.
		v := []float64{1}
		AllreduceSum(row, v)
		if v[0] != float64(pc) {
			t.Errorf("rank %d: row reduce %g", c.rank, v[0])
		}
		w := []float64{1}
		AllreduceSum(col, w)
		if w[0] != float64(pr) {
			t.Errorf("rank %d: col reduce %g", c.rank, w[0])
		}
	})
}

func TestSplitRanksOrderedByKey(t *testing.T) {
	Run(4, func(c *Comm) {
		// Reverse ordering via key.
		sub := c.Split(0, -c.rank)
		want := c.Size() - 1 - c.rank
		if sub.Rank() != want {
			t.Errorf("rank %d: sub rank %d want %d", c.rank, sub.Rank(), want)
		}
	})
}

func TestRunPropagatesPanic(t *testing.T) {
	defer func() {
		e := recover()
		if e == nil {
			t.Fatal("expected panic")
		}
		if s, ok := e.(string); !ok || s == "" {
			t.Fatalf("unexpected panic payload %v", e)
		}
	}()
	Run(3, func(c *Comm) {
		if c.rank == 1 {
			panic("boom")
		}
	})
}

// TestRecvBufferTooSmallPanics: a one-shot collective's recv buffer
// is checked against what the collective delivers, on the rank that
// passed it, before anything is read.
func TestRecvBufferTooSmallPanics(t *testing.T) {
	for name, call := range map[string]func(c *Comm){
		"Allgather": func(c *Comm) { Allgather(c, []int{1, 2, 3}, make([]int, 5)) },
		"Gather":    func(c *Comm) { Gather(c, 0, []int{1, 2, 3}, make([]int, 5)) },
	} {
		err := TryRun(2, call)
		var re *RankError
		if !errors.As(err, &re) || re.Rank != 0 || !strings.Contains(err.Error(), "recv length") {
			t.Errorf("%s: error %v, want rank 0's recv length panic", name, err)
		}
	}
}

// TestCollectiveContractMismatchPanics: ranks that disagree on a
// one-shot collective's length, element type or kind break its
// contract. Every reader finds the disagreement in its peer's
// publication and panics naming both ranks and the collective, instead
// of copying the shorter block and leaving the rest stale.
func TestCollectiveContractMismatchPanics(t *testing.T) {
	cases := []struct {
		name string
		call func(c *Comm)
		want string
	}{
		{"AllreduceSum lengths", func(c *Comm) {
			AllreduceSum(c, make([]float64, 2+c.Rank()))
		}, "AllreduceSum seq 1: rank 1 sends 3 elements, rank 0 expects 2"},
		{"Allgather blocks", func(c *Comm) {
			n := 2 + c.Rank()
			Allgather(c, make([]int, n), make([]int, 2*n))
		}, "Allgather seq 1: rank 1 sends 3 elements, rank 0 expects 2"},
		{"Allgather element type", func(c *Comm) {
			if c.Rank() == 0 {
				Allgather(c, make([]int32, 2), make([]int32, 4))
			} else {
				Allgather(c, make([]int64, 2), make([]int64, 4))
			}
		}, "rank 0 is in Allgather (seq 1, []int32) but rank 1 in Allgather (seq 1, []int64)"},
		{"sum against max", func(c *Comm) {
			if c.Rank() == 0 {
				AllreduceSum(c, make([]float64, 2))
			} else {
				AllreduceMax(c, make([]float64, 2))
			}
		}, "rank 0 is in AllreduceSum (seq 1, []float64) but rank 1 in AllreduceMax"},
	}
	for _, tc := range cases {
		err := TryRun(2, tc.call)
		if err == nil || !strings.Contains(err.Error(), tc.want) ||
			!strings.Contains(err.Error(), "collective contract violation") {
			t.Errorf("%s: error %v, want a contract violation containing %q", tc.name, err, tc.want)
		}
	}
}

func TestAlltoallLargePayloadStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	p := 4
	bs := 1 << 14
	Run(p, func(c *Comm) {
		send := make([]float64, p*bs)
		for i := range send {
			send[i] = float64(c.rank)
		}
		recv := make([]float64, p*bs)
		start := time.Now()
		for iter := 0; iter < 5; iter++ {
			Alltoall(c, send, recv)
		}
		_ = start
		for src := 0; src < p; src++ {
			if recv[src*bs] != float64(src) {
				t.Errorf("rank %d: wrong block origin", c.rank)
			}
		}
	})
}

func ExampleRun() {
	Run(2, func(c *Comm) {
		v := []float64{float64(c.Rank() + 1)}
		AllreduceSum(c, v)
		if c.Rank() == 0 {
			fmt.Println(v[0])
		}
	})
	// Output: 3
}

// TestGetClearsDeliveredSlot: once a one-shot collective has delivered
// every rank's block, the world's publication table no longer refers
// to any caller's buffer, so a large send buffer is not retained past
// the collective that published it.
func TestGetClearsDeliveredSlot(t *testing.T) {
	var w *world
	Run(3, func(c *Comm) {
		if c.Rank() == 0 {
			w = c.w
		}
		all := make([]float64, 3*1024)
		Allgather(c, make([]float64, 1024), all)
		Alltoall(c, make([]float64, 3), make([]float64, 3))
	})
	for r, pb := range w.pubs {
		if pb.data != nil || pb.counts != nil || pb.displs != nil {
			t.Fatalf("rank %d's publication still holds %T after the collective", r, pb.data)
		}
	}
}
