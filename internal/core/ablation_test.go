package core

import (
	"testing"

	"repro/internal/pfft"
)

func TestSlabBeatsPencil2DEverywhere(t *testing.T) {
	// §3.1: the 1D slab decomposition with few fat ranks beats the
	// traditional 2D pencil layout on dense-node machines — one large
	// exchange instead of two smaller ones.
	for _, a := range AblateDecomposition() {
		if a.Slab1D >= a.Pencil2D {
			t.Errorf("%d nodes: slab %.2f not faster than 2D pencil %.2f",
				a.Nodes, a.Slab1D, a.Pencil2D)
		}
		if a.SlabWinPct < 5 {
			t.Errorf("%d nodes: slab advantage only %.1f%%, expected a clear win",
				a.Nodes, a.SlabWinPct)
		}
	}
}

func TestBestConfigMatchesTable4Choices(t *testing.T) {
	// The autotuner must recover the paper's per-scale choices: B
	// (2 tasks, per-pencil) at 16 nodes, C (2 tasks, per-slab) beyond.
	tpn, gran, _ := BestConfig(3072, 16)
	if tpn != 2 || gran != pfft.PerPencil {
		t.Errorf("16 nodes: best = %d tasks/gran %d, want 2/pfft.PerPencil", tpn, gran)
	}
	for _, cse := range []struct{ n, nodes int }{{6144, 128}, {12288, 1024}, {18432, 3072}} {
		tpn, gran, _ := BestConfig(cse.n, cse.nodes)
		if tpn != 2 || gran != pfft.PerSlab {
			t.Errorf("%d nodes: best = %d tasks/gran %d, want 2/pfft.PerSlab", cse.nodes, tpn, gran)
		}
	}
}

func TestContentionAblationDirection(t *testing.T) {
	// Removing the host-memory contention must speed config B up —
	// and by a meaningful amount at scale (§5.2's shared-bandwidth
	// observation).
	with, without := AblateContention(12288, 1024)
	if without >= with {
		t.Errorf("contention off (%.2f) not faster than on (%.2f)", without, with)
	}
	if (with-without)/with < 0.05 {
		t.Errorf("contention effect only %.1f%%, expected noticeable", 100*(with-without)/with)
	}
}

func TestPencilCountAblationMonotone(t *testing.T) {
	// At fixed slab-granularity exchanges, more pencils only add
	// batching overhead (the reason §3.5 picks the minimum np that
	// fits GPU memory).
	times := AblatePencilCount(18432, 3072, []int{4, 6, 8, 12, 16})
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Errorf("np sweep not monotone at index %d: %v", i, times)
		}
	}
	// The penalty stays modest — batching is cheap, which is the
	// paper's point: "the overhead incurred in choosing to batch ... is
	// not significant compared to the total runtime" (§5.2).
	if (times[len(times)-1]-times[0])/times[0] > 0.15 {
		t.Errorf("batching overhead too large: %v", times)
	}
}

func TestPencil2DModelProducesSpans(t *testing.T) {
	res := SimulateGPU2DPencilStep(DefaultPerf(12288, 1024, 6, pfft.PerSlab))
	classes := map[string]bool{}
	for _, s := range res.Spans {
		classes[s.Class] = true
	}
	for _, c := range []string{"h2d", "d2h", "fft", "a2a", "unpack"} {
		if !classes[c] {
			t.Errorf("missing %s spans", c)
		}
	}
	// Two exchanges per group.
	var a2as int
	for _, s := range res.Spans {
		if s.Class == "a2a" {
			a2as++
		}
	}
	if a2as != 2*4 {
		t.Errorf("expected 8 exchanges, got %d", a2as)
	}
}
