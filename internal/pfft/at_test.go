package pfft

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/exchange"
	"repro/internal/mpi"
)

// With no injected delay and a generous deadline the asynchrony-
// tolerant transform must be bitwise identical to the synchronous
// staged reference: every bounded exchange completes inside the wait,
// the gather runs on current-epoch slabs, and the fused gather kernels
// are the exact ones the Fused strategy runs.
func TestSlabRealATZeroDelayBitwiseIdentity(t *testing.T) {
	const n = 28
	for _, p := range []int{1, 2, 4} {
		p := p
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			if err := mpi.TryRun(p, func(c *mpi.Comm) {
				ref := NewSlabRealStrategy(c, n, 1, exchange.Staged)
				defer ref.Close()
				fl, pl := ref.FourierLen(), ref.PhysicalLen()

				rng := rand.New(rand.NewSource(int64(7 + c.Rank())))
				physIn := make([]float64, pl)
				for i := range physIn {
					physIn[i] = rng.NormFloat64()
				}
				refFour := make([]complex128, fl)
				refPhys := make([]float64, pl)
				scratch := make([]float64, pl)
				copy(scratch, physIn)
				ref.PhysicalToFourier(refFour, scratch)
				fourScratch := make([]complex128, fl)
				copy(fourScratch, refFour)
				ref.FourierToPhysical(refPhys, fourScratch)

				for _, w := range []int{1, 2} {
					f := slabAT(c, n, w, 1, 2*time.Second)
					if f.Strategy() != exchange.AT {
						panic("the AT options did not pin the at strategy")
					}
					four := make([]complex128, fl)
					phys := make([]float64, pl)
					copy(phys, physIn)
					f.PhysicalToFourier(four, phys)
					for i := range four {
						if four[i] != refFour[i] {
							panic(fmt.Sprintf("rank %d workers=%d: AT forward differs at %d: %v vs %v",
								c.Rank(), w, i, four[i], refFour[i]))
						}
					}
					out := make([]float64, pl)
					f.FourierToPhysical(out, four)
					for i := range out {
						if out[i] != refPhys[i] {
							panic(fmt.Sprintf("rank %d workers=%d: AT inverse differs at %d: %v vs %v",
								c.Rank(), w, i, out[i], refPhys[i]))
						}
					}
					if max, _, slabs, calls := f.TakeStaleness(); max != 0 || slabs != 0 || calls != 2 {
						panic(fmt.Sprintf("rank %d: zero-delay transform staleness max=%d slabs=%d calls=%d",
							c.Rank(), max, slabs, calls))
					}
					f.Close()
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
