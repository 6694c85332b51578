package mpi

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestRandomCollectiveSequences drives every rank through the same
// randomly generated program of collectives and checks each result —
// the property that matters for the DNS: any same-order mixture of
// collectives delivers the right data.
func TestRandomCollectiveSequences(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(4) // 2..5 ranks
		nOps := 3 + rng.Intn(8)
		ops := make([]int, nOps)
		sizes := make([]int, nOps)
		for i := range ops {
			ops[i] = rng.Intn(5)
			sizes[i] = 1 + rng.Intn(16)
		}
		ok := true
		Run(p, func(c *Comm) {
			for i, op := range ops {
				n := sizes[i]
				switch op {
				case 0: // barrier
					c.Barrier()
				case 1: // allreduce sum
					v := make([]float64, n)
					for j := range v {
						v[j] = float64(c.Rank() + j)
					}
					AllreduceSum(c, v)
					for j := range v {
						want := float64(p*j) + float64(p*(p-1)/2)
						if v[j] != want {
							ok = false
						}
					}
				case 2: // blocking alltoall
					send := make([]int, p*n)
					for d := 0; d < p; d++ {
						for j := 0; j < n; j++ {
							send[d*n+j] = c.Rank()*1000000 + d*1000 + j
						}
					}
					recv := make([]int, p*n)
					Alltoall(c, send, recv)
					for s := 0; s < p; s++ {
						for j := 0; j < n; j++ {
							if recv[s*n+j] != s*1000000+c.Rank()*1000+j {
								ok = false
							}
						}
					}
				case 3: // varying-counts alltoall: n+d elements to rank d
					counts, displs := make([]int, p), make([]int, p)
					rcounts, rdispls := make([]int, p), make([]int, p)
					for d := 0; d < p; d++ {
						counts[d], rcounts[d] = n+d, n+c.Rank()
						if d > 0 {
							displs[d] = displs[d-1] + counts[d-1]
							rdispls[d] = rdispls[d-1] + rcounts[d-1]
						}
					}
					send := make([]int, displs[p-1]+counts[p-1])
					for d := 0; d < p; d++ {
						for j := 0; j < counts[d]; j++ {
							send[displs[d]+j] = i*100 + c.Rank()*10 + d
						}
					}
					recv := make([]int, rdispls[p-1]+rcounts[p-1])
					Alltoallv(c, send, counts, displs, recv, rcounts, rdispls)
					for s := 0; s < p; s++ {
						for j := 0; j < rcounts[s]; j++ {
							if recv[rdispls[s]+j] != i*100+s*10+c.Rank() {
								ok = false
							}
						}
					}
				case 4: // allgather
					send := make([]int, n)
					for j := range send {
						send[j] = i*100 + c.Rank()*10 + j
					}
					recv := make([]int, p*n)
					Allgather(c, send, recv)
					for s := 0; s < p; s++ {
						for j := 0; j < n; j++ {
							if recv[s*n+j] != i*100+s*10+j {
								ok = false
							}
						}
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestManyConcurrentWorlds runs several independent worlds at once —
// the pattern the benchmarks and table tests create — verifying no
// shared-state leakage between Run invocations.
func TestManyConcurrentWorlds(t *testing.T) {
	done := make(chan bool, 8)
	for w := 0; w < 8; w++ {
		w := w
		go func() {
			okAll := true
			Run(3, func(c *Comm) {
				v := []float64{float64(w)}
				AllreduceSum(c, v)
				if v[0] != float64(3*w) {
					okAll = false
				}
			})
			done <- okAll
		}()
	}
	for w := 0; w < 8; w++ {
		if !<-done {
			t.Error("cross-world interference")
		}
	}
}
