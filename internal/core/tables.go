package core

import (
	"fmt"
	"strings"

	"repro/internal/pfft"
	"repro/internal/trace"
)

// standardCases are the four problem-size/node-count pairs of the
// paper's evaluation (§3.5, Tables 1–4).
var standardCases = []struct {
	Nodes, N int
}{
	{16, 3072}, {128, 6144}, {1024, 12288}, {3072, 18432},
}

// Table3Row is one row of the paper's Table 3: time per RK2 step of
// the synchronous CPU baseline and the async GPU code under the three
// MPI configurations, with GPU:CPU speedups.
type Table3Row struct {
	Nodes, N                     int
	CPU                          float64
	A, B, C                      float64 // 6/pencil, 2/pencil, 2/slab
	SpeedupA, SpeedupB, SpeedupC float64
}

// Table3 regenerates the paper's Table 3 from the performance model.
func Table3() []Table3Row {
	rows := make([]Table3Row, 0, len(standardCases))
	for _, cse := range standardCases {
		cpu := SimulateCPUStep(DefaultCPUPerf(cse.N, cse.Nodes)).Time
		a := SimulateGPUStep(DefaultPerf(cse.N, cse.Nodes, 6, pfft.PerPencil)).Time
		b := SimulateGPUStep(DefaultPerf(cse.N, cse.Nodes, 2, pfft.PerPencil)).Time
		cc := SimulateGPUStep(DefaultPerf(cse.N, cse.Nodes, 2, pfft.PerSlab)).Time
		rows = append(rows, Table3Row{
			Nodes: cse.Nodes, N: cse.N,
			CPU: cpu, A: a, B: b, C: cc,
			SpeedupA: cpu / a, SpeedupB: cpu / b, SpeedupC: cpu / cc,
		})
	}
	return rows
}

// Table4Row is one row of the paper's Table 4: weak scaling relative
// to the 3072³/16-node case using each size's best configuration.
type Table4Row struct {
	Nodes, Ntasks, N int
	PencilsPerA2A    int // 1 when the best config exchanges per pencil
	Time             float64
	WeakScaling      float64 // percent; 0 for the reference row
}

// Table4 regenerates the paper's Table 4. The best configuration is
// chosen per problem size, as the paper does (per-pencil wins at 16
// nodes, per-slab at scale).
func Table4() []Table4Row {
	rows := make([]Table4Row, 0, len(standardCases))
	var t1 float64
	var n1, m1 int
	for i, cse := range standardCases {
		b := SimulateGPUStep(DefaultPerf(cse.N, cse.Nodes, 2, pfft.PerPencil))
		c := SimulateGPUStep(DefaultPerf(cse.N, cse.Nodes, 2, pfft.PerSlab))
		np := DefaultPerf(cse.N, cse.Nodes, 2, pfft.PerSlab).NP
		best, pencils := c.Time, np
		if b.Time < c.Time {
			best, pencils = b.Time, 1
		}
		row := Table4Row{
			Nodes: cse.Nodes, Ntasks: 2 * cse.Nodes, N: cse.N,
			PencilsPerA2A: pencils, Time: best,
		}
		if i == 0 {
			t1, n1, m1 = best, cse.N, cse.Nodes
		} else {
			row.WeakScaling = WeakScalingPct(n1, m1, t1, cse.N, cse.Nodes, best)
		}
		rows = append(rows, row)
	}
	return rows
}

// WeakScalingPct evaluates Eq 4 of the paper:
// WS = (N2³/N1³)·(t1/t2)·(M1/M2)·100.
func WeakScalingPct(n1, m1 int, t1 float64, n2, m2 int, t2 float64) float64 {
	r := float64(n2) / float64(n1)
	return r * r * r * (t1 / t2) * float64(m1) / float64(m2) * 100
}

// Fig9Series is one curve of Fig 9: time per step vs node count.
type Fig9Series struct {
	Label string
	Nodes []int
	Times []float64
}

// Fig9 regenerates the sweep of Fig 9: the three DNS configurations
// plus the MPI-only lower bound.
func Fig9() []Fig9Series {
	mk := func(label string, f func(n, nodes int) float64) Fig9Series {
		s := Fig9Series{Label: label}
		for _, cse := range standardCases {
			s.Nodes = append(s.Nodes, cse.Nodes)
			s.Times = append(s.Times, f(cse.N, cse.Nodes))
		}
		return s
	}
	return []Fig9Series{
		mk("6 tasks/node, 1 pencil/A2A", func(n, nodes int) float64 {
			return SimulateGPUStep(DefaultPerf(n, nodes, 6, pfft.PerPencil)).Time
		}),
		mk("2 tasks/node, 1 pencil/A2A", func(n, nodes int) float64 {
			return SimulateGPUStep(DefaultPerf(n, nodes, 2, pfft.PerPencil)).Time
		}),
		mk("2 tasks/node, 1 slab/A2A", func(n, nodes int) float64 {
			return SimulateGPUStep(DefaultPerf(n, nodes, 2, pfft.PerSlab)).Time
		}),
		mk("MPI only (no compute)", func(n, nodes int) float64 {
			return SimulateMPIOnly(DefaultPerf(n, nodes, 2, pfft.PerSlab)).Time
		}),
	}
}

// Fig10 regenerates the normalized timeline comparison of Fig 10 at
// the 12288³/1024-node case: the MPI-only schedule, configuration B
// (overlapped pencils), configuration C (one slab message), and
// configuration A (6 tasks/node).
func Fig10() []trace.Timeline {
	n, nodes := 12288, 1024
	cases := []struct {
		title string
		res   StepResult
	}{
		{"MPI only (2 tasks/node, pencil granularity)", SimulateMPIOnly(DefaultPerf(n, nodes, 2, pfft.PerPencil))},
		{"DNS, 2 tasks/node, 1 pencil/A2A (cfg B)", SimulateGPUStep(DefaultPerf(n, nodes, 2, pfft.PerPencil))},
		{"DNS, 2 tasks/node, 1 slab/A2A (cfg C)", SimulateGPUStep(DefaultPerf(n, nodes, 2, pfft.PerSlab))},
		{"DNS, 6 tasks/node, 1 pencil/A2A (cfg A)", SimulateGPUStep(DefaultPerf(n, nodes, 6, pfft.PerPencil))},
	}
	out := make([]trace.Timeline, 0, len(cases))
	for _, c := range cases {
		out = append(out, trace.Timeline{Title: c.title, Spans: c.res.Spans})
	}
	return out
}

// StrongScaling18432 reproduces the §5.3 check: the 18432³ problem
// with 6 tasks/node on 1536 vs 3072 nodes, returning the two times and
// the strong-scaling percentage 100·t(3072)·2/t(1536)⁻¹… i.e.
// 100·(t1536/(2·t3072))⁻¹ as the paper reports ≈95.7%.
func StrongScaling18432() (t1536, t3072, pct float64) {
	t1536 = SimulateGPUStep(DefaultPerf(18432, 1536, 6, pfft.PerPencil)).Time
	t3072 = SimulateGPUStep(DefaultPerf(18432, 3072, 6, pfft.PerPencil)).Time
	pct = 100 * t1536 / (2 * t3072)
	return t1536, t3072, pct
}

// FormatTable3 renders Table 3 in the paper's layout.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-8s %10s | %8s %7s | %8s %7s | %8s %7s\n",
		"Nodes", "N", "SyncCPU(s)", "A(s)", "spd", "B(s)", "spd", "C(s)", "spd")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6d %-8d %10.2f | %8.2f %7.1f | %8.2f %7.1f | %8.2f %7.1f\n",
			r.Nodes, r.N, r.CPU, r.A, r.SpeedupA, r.B, r.SpeedupB, r.C, r.SpeedupC)
	}
	return b.String()
}

// FormatTable4 renders Table 4 in the paper's layout.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-7s %-8s %-12s %-8s %s\n",
		"Nodes", "Ntasks", "N", "#pencils/A2A", "Time(s)", "WeakScaling(%)")
	for _, r := range rows {
		ws := "-"
		if r.WeakScaling > 0 {
			ws = fmt.Sprintf("%.1f", r.WeakScaling)
		}
		fmt.Fprintf(&b, "%-6d %-7d %-8d %-12d %-8.2f %s\n",
			r.Nodes, r.Ntasks, r.N, r.PencilsPerA2A, r.Time, ws)
	}
	return b.String()
}

// FormatFig9 renders the Fig 9 series as aligned columns.
func FormatFig9(series []Fig9Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s", "Nodes")
	for _, s := range series {
		fmt.Fprintf(&b, " %28s", s.Label)
	}
	b.WriteString("\n")
	for i := range series[0].Nodes {
		fmt.Fprintf(&b, "%-8d", series[0].Nodes[i])
		for _, s := range series {
			fmt.Fprintf(&b, " %28.2f", s.Times[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// MPITimeShare returns the fraction of a simulated step's makespan the
// network resource is busy, the §5.2/§6 "bulk of the remaining
// runtime is all-to-all" observation.
func MPITimeShare(r StepResult) float64 {
	var net float64
	for _, s := range r.Spans {
		if s.Class == "a2a" {
			net += s.End - s.Start
		}
	}
	return net / r.Time
}
