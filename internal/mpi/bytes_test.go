package mpi

import (
	"testing"

	"repro/internal/metrics"
)

// TestSenderSideByteConvention pins the accounting convention of
// doc.go: every operation charges sender-side wire bytes, excluding
// loopback copies to self. With p=4 ranks and 6-word (48-byte) blocks
// each collective family has a closed-form expectation per rank.
func TestSenderSideByteConvention(t *testing.T) {
	reg := metrics.NewRegistry()
	const p = 4
	const words = 6
	const blk = words * 8 // float64 block bytes
	if err := RunWith(p, reg, func(c *Comm) {
		buf := make([]float64, words)
		all := make([]float64, p*words)

		Allgather(c, buf, all)                     // every rank: (p-1)*blk
		Gather(c, 0, buf, all)                     // non-root: blk; root: 0
		Alltoall(c, all, make([]float64, p*words)) // every rank: (p-1)*blk

		counts := make([]int, p)
		displs := make([]int, p)
		for i := range counts {
			counts[i] = words
			displs[i] = i * words
		}
		recv := make([]float64, p*words)
		Alltoallv(c, all, counts, displs, recv, counts, displs) // every rank: (p-1)*blk
	}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()

	wantColl := func(r int) float64 {
		// Allgather + Gather contributions.
		if r == 0 {
			return float64((p-1)*blk + 0)
		}
		return float64((p-1)*blk + blk)
	}
	for r := 0; r < p; r++ {
		if e, _ := snap.Get("mpi.coll.bytes", r); e.Value != wantColl(r) {
			t.Errorf("rank %d coll bytes = %v, want %v", r, e.Value, wantColl(r))
		}
		// Alltoall + Alltoallv, each (p-1)*blk.
		if e, _ := snap.Get("mpi.a2a.bytes", r); e.Value != float64(2*(p-1)*blk) {
			t.Errorf("rank %d a2a bytes = %v, want %v", r, e.Value, 2*(p-1)*blk)
		}
	}
}
