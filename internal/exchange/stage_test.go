package exchange

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/par"
)

// blockKernels is the plain block all-to-all as a stage direction: rank
// r's src block j lands in rank j's dst block r, each block's elements
// reversed when rev is set (so the two directions of a stage are
// distinguishable). Pack/Unpack/Gather split over the p blocks,
// GatherPeer over the blk elements of one block.
func blockKernels[T Elem](me, p, blk int, rev bool) Kernels[T] {
	at := func(i int) int {
		if rev {
			return blk - 1 - i
		}
		return i
	}
	return Kernels[T]{
		PackUnits: p, DstUnits: p, PeerUnits: blk,
		Pack: func(pack, src []T, lo, hi int) {
			copy(pack[lo*blk:hi*blk], src[lo*blk:hi*blk])
		},
		Unpack: func(dst, recv []T, lo, hi int) {
			for i := lo * blk; i < hi*blk; i++ {
				dst[i/blk*blk+at(i%blk)] = recv[i]
			}
		},
		Gather: func(dst []T, srcs [][]T, lo, hi int) {
			for r := lo; r < hi; r++ {
				for i := 0; i < blk; i++ {
					dst[r*blk+at(i)] = srcs[r][me*blk+i]
				}
			}
		},
		GatherPeer: func(dst, src []T, peer, lo, hi int) {
			for i := lo; i < hi; i++ {
				dst[peer*blk+at(i)] = src[me*blk+i]
			}
		},
	}
}

// Every strategy must land the same bytes, in the direction asked for,
// at either wire precision and any team size; the bounded stage must
// count its exchanges and, with prompt peers, see no stale slab.
func testStage[T Elem](t *testing.T, conv func(float64) T) {
	const p, blk = 4, 5
	for _, workers := range []int{1, 3} {
		if err := mpi.TryRun(p, func(c *mpi.Comm) {
			me := c.Rank()
			team := par.NewTeam(workers)
			defer team.Close()
			dirs := [2]Kernels[T]{YZ: blockKernels[T](me, p, blk, false), ZY: blockKernels[T](me, p, blk, true)}
			sync := NewStage(c, team, Phases{}, p*blk, p*blk, nil, dirs)
			defer sync.Close()
			at := NewStage(c, team, Phases{}, 0, p*blk, &Bound{MaxStale: 1, Deadline: 2 * time.Second}, dirs)
			defer at.Close()

			src := Alloc[T](p * blk)
			dst := Alloc[T](p * blk)
			defer Release(src)
			defer Release(dst)
			for i := range src {
				src[i] = conv(float64(1000*me + i))
			}
			check := func(tag string, rev bool) {
				for r := 0; r < p; r++ {
					for i := 0; i < blk; i++ {
						j := i
						if rev {
							j = blk - 1 - i
						}
						if want := conv(float64(1000*r + me*blk + i)); dst[r*blk+j] != want {
							panic(fmt.Sprintf("rank %d workers=%d %s: dst[%d][%d] = %v, want %v", me, workers, tag, r, j, dst[r*blk+j], want))
						}
					}
				}
				clear(dst)
			}
			for _, d := range []Dir{YZ, ZY} {
				for _, st := range Concrete {
					sync.Run(d, st, src, dst)
					check(st.String(), d == ZY)
				}
				at.SetATSite(uint32(d))
				at.Run(d, AT, src, dst)
				check("at", d == ZY)
			}
			if m, _, slabs, calls := at.TakeStaleness(); m != 0 || slabs != 0 || calls != 2 {
				panic(fmt.Sprintf("rank %d: bounded stage staleness max=%d slabs=%d calls=%d, want 0 0 2", me, m, slabs, calls))
			}
			if _, _, _, calls := sync.TakeStaleness(); calls != 0 {
				panic(fmt.Sprintf("rank %d: synchronous stage counted %d bounded exchanges", me, calls))
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// A stage built without staged blocks (stagedLen 0) runs the zero-copy
// strategies and refuses Staged with a message naming the constructor
// argument, on every rank alike, instead of dereferencing a nil plan.
func TestStagedRunNeedsBlocks(t *testing.T) {
	const p, blk = 2, 3
	err := mpi.TryRun(p, func(c *mpi.Comm) {
		team := par.NewTeam(1)
		defer team.Close()
		k := blockKernels[complex128](c.Rank(), p, blk, false)
		s := NewStage(c, team, Phases{}, 0, p*blk, nil, [2]Kernels[complex128]{k, k})
		defer s.Close()
		src, dst := make([]complex128, p*blk), make([]complex128, p*blk)
		s.Run(YZ, ChunkedFused, src, dst)
		s.Run(ZY, Staged, src, dst)
	})
	if err == nil || !strings.Contains(err.Error(), "NewStage allocates the pack and recv blocks only for stagedLen > 0") {
		t.Fatalf("Staged on a stage without blocks: %v", err)
	}
}

func TestStageStrategiesAgree(t *testing.T) {
	t.Run("complex128", func(t *testing.T) { testStage(t, func(x float64) complex128 { return complex(x, -x) }) })
	t.Run("complex64", func(t *testing.T) {
		testStage(t, func(x float64) complex64 { return complex(float32(x), float32(-x)) })
	})
}

// A bounded stage must forward its site label to the plan: two sites
// alternate through one direction while rank 1 is held exactly one
// exchange behind rank 0, so rank 0's freshest slab from rank 1 is
// always the other site's. With the label forwarded, rank 0 falls back
// to rank 1's previous same-site slab; without it every publication
// reads as site 0 and the other site's content is gathered.
func TestBoundedStageForwardsSite(t *testing.T) {
	const p, blk, rounds = 2, 3, 12
	var done [p][rounds + 1]chan struct{}
	for r := range done {
		for k := range done[r] {
			done[r][k] = make(chan struct{})
		}
	}
	// The schedule does not depend on what is gathered, so a wrong slab
	// is recorded, not raised: both ranks still finish every exchange.
	var wrong [p]string
	if err := mpi.TryRun(p, func(c *mpi.Comm) {
		me := c.Rank()
		team := par.NewTeam(1)
		defer team.Close()
		k := blockKernels[complex128](me, p, blk, false)
		s := NewStage(c, team, Phases{}, 0, p*blk, &Bound{MaxStale: 2}, [2]Kernels[complex128]{k, k})
		defer s.Close()
		src := make([]complex128, p*blk)
		dst := make([]complex128, p*blk)
		for e := 1; e <= rounds; e++ {
			// Exchanges 1 and 2 run in step; from 3 on, rank 0 starts
			// exchange e once rank 1 finished e−1, and rank 1 starts e
			// once rank 0 finished e.
			if e > 2 {
				peer, at := 1, e-1
				if me == 1 {
					peer, at = 0, e
				}
				select {
				case <-done[peer][at]:
				case <-time.After(10 * time.Second):
					panic(fmt.Sprintf("rank %d: rank %d never finished exchange %d", me, peer, at))
				}
			}
			site := uint32(e % 2)
			for i := range src {
				src[i] = complex(float64(site), float64(e))
			}
			s.SetATSite(site)
			s.Run(YZ, AT, src, dst)
			close(done[me][e])
			for i, v := range dst {
				if got := uint32(real(v)); got != site && wrong[me] == "" {
					wrong[me] = fmt.Sprintf("rank %d exchange %d (site %d): dst[%d] = %v carries site %d's content",
						me, e, site, i, v, got)
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	for _, w := range wrong {
		if w != "" {
			t.Error(w)
		}
	}
}
