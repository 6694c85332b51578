package exchange

import (
	"fmt"
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

func TestStageStrategiesAgree(t *testing.T) {
	t.Run("complex128", func(t *testing.T) { testStage(t, func(x float64) complex128 { return complex(x, -x) }) })
	t.Run("complex64", func(t *testing.T) {
		testStage(t, func(x float64) complex64 { return complex(float32(x), float32(-x)) })
	})
}
