package mpi

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestRandomCollectiveSequences drives every rank through the same
// randomly generated program of collectives and checks each result —
// the property that matters for the DNS: any same-order mixture of
// blocking and non-blocking operations delivers the right data.
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
			var pending []*Request
			var pendingChecks []func() bool
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
				case 3: // non-blocking alltoall, deferred wait
					send := make([]int, p*n)
					for d := 0; d < p; d++ {
						send[d*n] = i*100 + c.Rank()
					}
					recv := make([]int, p*n)
					req := Ialltoall(c, send, recv)
					pending = append(pending, req)
					i := i
					pendingChecks = append(pendingChecks, func() bool {
						for s := 0; s < p; s++ {
							if recv[s*n] != i*100+s {
								return false
							}
						}
						return true
					})
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
			for _, req := range pending {
				req.Wait()
			}
			for _, chk := range pendingChecks {
				if !chk() {
					ok = false
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

// TestDeepNonblockingPipelining issues a long chain of Ialltoalls
// before waiting on any — the config-B pattern with many pencils.
func TestDeepNonblockingPipelining(t *testing.T) {
	const depth = 32
	Run(4, func(c *Comm) {
		sends := make([][]int, depth)
		recvs := make([][]int, depth)
		reqs := make([]*Request, depth)
		for i := 0; i < depth; i++ {
			sends[i] = make([]int, 4)
			for d := 0; d < 4; d++ {
				sends[i][d] = i*1000 + c.Rank()*10 + d
			}
			recvs[i] = make([]int, 4)
			reqs[i] = Ialltoall(c, sends[i], recvs[i])
		}
		// Wait in reverse order to stress out-of-order completion.
		for i := depth - 1; i >= 0; i-- {
			reqs[i].Wait()
			for s := 0; s < 4; s++ {
				if recvs[i][s] != i*1000+s*10+c.Rank() {
					t.Errorf("depth %d from %d: got %d", i, s, recvs[i][s])
				}
			}
		}
	})
}
