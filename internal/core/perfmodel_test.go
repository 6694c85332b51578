package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/pfft"
	"repro/internal/trace"
)

// paperTable3 holds the measured values of the paper's Table 3.
var paperTable3 = []struct {
	nodes, n int
	cpu      float64
	a, b, c  float64
}{
	{16, 3072, 34.38, 8.09, 6.70, 7.50},
	{128, 6144, 40.18, 12.17, 8.66, 8.07},
	{1024, 12288, 47.57, 13.63, 12.62, 10.14},
	{3072, 18432, 41.96, 25.44, 22.30, 14.24},
}

func relErr(got, want float64) float64 { return math.Abs(got-want) / want }

func TestTable3WithinTolerance(t *testing.T) {
	rows := Table3()
	if len(rows) != len(paperTable3) {
		t.Fatalf("rows %d", len(rows))
	}
	for i, w := range paperTable3 {
		g := rows[i]
		if g.Nodes != w.nodes || g.N != w.n {
			t.Fatalf("row %d: got %d/%d", i, g.Nodes, g.N)
		}
		if e := relErr(g.CPU, w.cpu); e > 0.25 {
			t.Errorf("%d nodes: CPU %.2f vs paper %.2f (%.0f%%)", w.nodes, g.CPU, w.cpu, e*100)
		}
		if e := relErr(g.A, w.a); e > 0.25 {
			t.Errorf("%d nodes: A %.2f vs paper %.2f (%.0f%%)", w.nodes, g.A, w.a, e*100)
		}
		if e := relErr(g.B, w.b); e > 0.15 {
			t.Errorf("%d nodes: B %.2f vs paper %.2f (%.0f%%)", w.nodes, g.B, w.b, e*100)
		}
		if e := relErr(g.C, w.c); e > 0.15 {
			t.Errorf("%d nodes: C %.2f vs paper %.2f (%.0f%%)", w.nodes, g.C, w.c, e*100)
		}
	}
}

func TestTable3ConfigurationOrderings(t *testing.T) {
	rows := Table3()
	// 16 nodes: B is the best GPU configuration (paper: 6.70 < 7.50 < 8.09).
	if !(rows[0].B < rows[0].C && rows[0].C < rows[0].A) {
		t.Errorf("16 nodes: want B<C<A, got A=%.2f B=%.2f C=%.2f", rows[0].A, rows[0].B, rows[0].C)
	}
	// Beyond 16 nodes, sending the whole slab wins (§5.2's takeaway).
	for _, r := range rows[1:] {
		if !(r.C < r.B && r.C < r.A) {
			t.Errorf("%d nodes: C should win (A=%.2f B=%.2f C=%.2f)", r.Nodes, r.A, r.B, r.C)
		}
	}
	// GPU beats CPU everywhere; the best speedup stays above 2.9 even
	// at 18432³ and reaches ≈5 at small scale.
	for _, r := range rows {
		best := math.Min(r.A, math.Min(r.B, r.C))
		if r.CPU/best < 2.5 {
			t.Errorf("%d nodes: best speedup %.1f below the paper's ≥2.9 ballpark", r.Nodes, r.CPU/best)
		}
	}
	if s := rows[0].CPU / math.Min(rows[0].B, rows[0].C); s < 4.0 || s > 6.5 {
		t.Errorf("16 nodes: best speedup %.1f, paper reports ≈5", s)
	}
	// 12288³ (largest size previously published): speedup in the 3–5×
	// band the abstract quotes (4.7 measured).
	r := rows[2]
	if s := r.CPU / r.C; s < 3.0 || s > 5.5 {
		t.Errorf("12288³ speedup %.1f outside the paper's band (4.7)", s)
	}
	// 18432³: under 15 seconds per step with the best configuration
	// (the headline time-to-solution claim).
	if rows[3].C >= 15.5 {
		t.Errorf("18432³ cfg C %.2f s, paper achieves 14.24 (<15)", rows[3].C)
	}
}

func TestTable4WeakScaling(t *testing.T) {
	rows := Table4()
	// Paper: pencils per A2A are 1, 3, 3, 4 (per-pencil best at 16
	// nodes, whole slab with Table 1's np at scale).
	wantPencils := []int{1, 3, 3, 4}
	for i, w := range wantPencils {
		if rows[i].PencilsPerA2A != w {
			t.Errorf("row %d: pencils/A2A %d want %d", i, rows[i].PencilsPerA2A, w)
		}
	}
	// Weak scaling percentages within 8 points of the paper's
	// 83.0, 66.1, 52.9 and monotonically decreasing.
	paper := []float64{83.0, 66.1, 52.9}
	prev := 100.0
	for i, w := range paper {
		got := rows[i+1].WeakScaling
		if math.Abs(got-w) > 8 {
			t.Errorf("weak scaling row %d: %.1f%% vs paper %.1f%%", i+1, got, w)
		}
		if got >= prev {
			t.Errorf("weak scaling not decreasing at row %d", i+1)
		}
		prev = got
	}
	// §5.3's argument: ≈50% at a 216× increase in problem size is the
	// regime the paper calls "very respectable".
	if ws := rows[3].WeakScaling; ws < 40 || ws > 62 {
		t.Errorf("18432³ weak scaling %.1f%% outside the paper's regime (52.9%%)", ws)
	}
}

func TestEq4WeakScalingFormula(t *testing.T) {
	// Sanity-check Eq 4 against the paper's own arithmetic:
	// 6144³ on 128 nodes at 8.07 s vs 3072³ on 16 at 6.70 s → 83.0%.
	got := WeakScalingPct(3072, 16, 6.70, 6144, 128, 8.07)
	if math.Abs(got-83.0) > 0.2 {
		t.Errorf("Eq 4 gives %.1f%%, paper computes 83.0%%", got)
	}
	got = WeakScalingPct(3072, 16, 6.70, 18432, 3072, 14.24)
	if math.Abs(got-52.9) > 0.3 {
		t.Errorf("Eq 4 gives %.1f%%, paper computes 52.9%%", got)
	}
}

func TestFig9MPIOnlyIsLowerBound(t *testing.T) {
	series := Fig9()
	var mpiOnly, cfgC Fig9Series
	for _, s := range series {
		if strings.Contains(s.Label, "MPI only") {
			mpiOnly = s
		}
		if strings.Contains(s.Label, "slab/A2A") {
			cfgC = s
		}
	}
	if mpiOnly.Label == "" || cfgC.Label == "" {
		t.Fatal("missing series")
	}
	for i := range mpiOnly.Times {
		if mpiOnly.Times[i] >= cfgC.Times[i] {
			t.Errorf("node %d: MPI-only %.2f not below DNS %.2f",
				mpiOnly.Nodes[i], mpiOnly.Times[i], cfgC.Times[i])
		}
		// The gap (GPU kernels + transfers) is small relative to the
		// total at scale: the paper's "less than one-seventh" remark
		// means non-MPI work is a minor fraction at 3072 nodes.
		if i == len(mpiOnly.Times)-1 {
			gap := cfgC.Times[i] - mpiOnly.Times[i]
			if gap/cfgC.Times[i] > 0.35 {
				t.Errorf("non-MPI share %.0f%% at 3072 nodes, paper ≈1/7–1/4", 100*gap/cfgC.Times[i])
			}
		}
	}
}

func TestFig9TimesGrowWithScale(t *testing.T) {
	for _, s := range Fig9() {
		if strings.Contains(s.Label, "6 tasks") {
			// Config A is non-monotone in the paper too (12.17→13.63→25.44
			// after 8.09); only require growth beyond 16 nodes.
			for i := 2; i < len(s.Times); i++ {
				if s.Times[i] < s.Times[i-1] {
					t.Errorf("%s: time fell from %d to %d nodes", s.Label, s.Nodes[i-1], s.Nodes[i])
				}
			}
			continue
		}
		for i := 1; i < len(s.Times); i++ {
			if s.Times[i] < s.Times[i-1] {
				t.Errorf("%s: time fell from %d to %d nodes", s.Label, s.Nodes[i-1], s.Nodes[i])
			}
		}
	}
}

func TestFig10TimelinesRender(t *testing.T) {
	tls := Fig10()
	if len(tls) != 4 {
		t.Fatalf("want 4 timelines, got %d", len(tls))
	}
	out := trace.RenderComparison(tls, 100)
	for _, want := range []string{"MPI only", "cfg B", "cfg C", "cfg A", "M", "legend"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in rendered Fig 10", want)
		}
	}
	// The DNS timelines include network plus GPU activity classes.
	for _, tl := range tls[1:] {
		classes := map[string]bool{}
		for _, sp := range tl.Spans {
			classes[sp.Class] = true
		}
		for _, c := range []string{"h2d", "d2h", "fft", "a2a", "unpack"} {
			if !classes[c] {
				t.Errorf("%s: missing %s spans", tl.Title, c)
			}
		}
	}
}

func TestFig10MPIDominatesRuntime(t *testing.T) {
	// §5.2: "the MPI time is immediately seen to be the major user of
	// runtime" at 12288³ on 1024 nodes for the 2-task configurations.
	for _, gran := range []pfft.Granularity{pfft.PerPencil, pfft.PerSlab} {
		res := SimulateGPUStep(DefaultPerf(12288, 1024, 2, gran))
		if share := MPITimeShare(res); share < 0.5 {
			t.Errorf("gran %d: MPI share %.0f%% not dominant", gran, share*100)
		}
	}
}

func TestFig10SlabTransposesFasterThanPencil(t *testing.T) {
	// §5.2: "the same amount of data can be transposed faster when
	// processed as one, larger, message" (timeline 3 vs timeline 2).
	b := SimulateGPUStep(DefaultPerf(12288, 1024, 2, pfft.PerPencil))
	c := SimulateGPUStep(DefaultPerf(12288, 1024, 2, pfft.PerSlab))
	if ClassTime(c.Spans, "a2a") >= ClassTime(b.Spans, "a2a") {
		t.Errorf("slab a2a %.2fs not faster than pencil a2a %.2fs",
			ClassTime(c.Spans, "a2a"), ClassTime(b.Spans, "a2a"))
	}
}

func TestFig10SixTaskPackingSlower(t *testing.T) {
	// §5.2: the 6 tasks/node case spends longer in the D2H packing
	// cudaMemcpy2DAsync section because the call count triples.
	a := SimulateGPUStep(DefaultPerf(12288, 1024, 6, pfft.PerPencil))
	b := SimulateGPUStep(DefaultPerf(12288, 1024, 2, pfft.PerPencil))
	// Per-node packing time: config A's per-rank d2h×6 vs B's ×2.
	packA := ClassTime(a.Spans, "d2h") * 6
	packB := ClassTime(b.Spans, "d2h") * 2
	if packA <= packB {
		t.Errorf("6-task node packing %.3fs not above 2-task %.3fs", packA, packB)
	}
}

func TestStrongScaling18432Direction(t *testing.T) {
	// §5.3 reports 48.7 s on 1536 vs 25.4 s on 3072 nodes. The model's
	// absolute 1536-node time under-predicts (documented in
	// EXPERIMENTS.md) but halving nodes must cost well over 1.2×.
	t1536, t3072, _ := StrongScaling18432()
	if t1536 <= 1.2*t3072 {
		t.Errorf("1536 nodes %.1fs vs 3072 %.1fs: no strong-scaling cost", t1536, t3072)
	}
	if relErr(t3072, 25.44) > 0.25 {
		t.Errorf("3072-node cfg A time %.1f vs paper 25.44", t3072)
	}
}

func TestMPIOnlyMatchesEq3Arithmetic(t *testing.T) {
	// The MPI-only simulation of config C must equal Groups × the Eq 3
	// exchange time exactly (no other tasks).
	c := DefaultPerf(3072, 16, 2, pfft.PerSlab)
	res := SimulateMPIOnly(c)
	want := float64(c.Groups) * c.Net.Time(c.p2pBytes(), c.ranks(), c.TPN, c.Nodes)
	if math.Abs(res.Time-want) > 1e-9 {
		t.Errorf("MPI-only %.4f want %.4f", res.Time, want)
	}
}

func TestFormattersProduceTables(t *testing.T) {
	t3 := FormatTable3(Table3())
	if !strings.Contains(t3, "18432") || !strings.Contains(t3, "spd") {
		t.Errorf("Table 3 formatting:\n%s", t3)
	}
	t4 := FormatTable4(Table4())
	if !strings.Contains(t4, "WeakScaling") {
		t.Errorf("Table 4 formatting:\n%s", t4)
	}
	f9 := FormatFig9(Fig9())
	if !strings.Contains(f9, "MPI only") {
		t.Errorf("Fig 9 formatting:\n%s", f9)
	}
}
