// Scaling study on the Summit machine model: sweeps the paper's four
// problem sizes across MPI configurations, prints the predicted time
// per step, weak scaling, and a normalized timeline, and demonstrates
// the memory model that picks node counts and pencil counts (§3.5).
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/pfft"
	"repro/internal/simnet"
	"repro/internal/spectral"
	"repro/internal/trace"
)

func main() {
	m := hw.Summit()
	fmt.Println("=== §3.5 memory model ===")
	for _, n := range []int{3072, 6144, 12288, 18432} {
		fmt.Printf("N=%-6d min nodes %-5d valid node counts %v\n",
			n, m.MinNodes(n), m.ValidNodeCounts(n))
	}

	fmt.Println("\n=== predicted time per RK2 step (s) ===")
	fmt.Print(core.FormatTable3(core.Table3()))

	fmt.Println("\n=== weak scaling (Eq 4) ===")
	fmt.Print(core.FormatTable4(core.Table4()))

	fmt.Println("\n=== where the time goes at 18432³ on 3072 nodes (cfg C) ===")
	res := core.SimulateGPUStep(core.DefaultPerf(18432, 3072, 2, pfft.PerSlab))
	fmt.Printf("time/step %.2f s, MPI share %.0f%%\n", res.Time, 100*core.MPITimeShare(res))
	fmt.Print(trace.Render(trace.Timeline{
		Title: "18432³ / 3072 nodes / 2 tasks per node / 1 slab per A2A",
		Spans: res.Spans,
	}, 110))
	fmt.Print(trace.ClassSummary(res.Spans))

	fmt.Println("\n=== what-if: hardware levers at 18432³/3072 nodes (§6) ===")
	base := core.DefaultPerf(18432, 3072, 2, pfft.PerSlab)
	baseT := core.SimulateGPUStep(base).Time
	gpu2 := base
	gpu2.Machine = gpu2.Machine.WithGPUScale(2).WithTransferScale(2)
	net2 := base
	net2.Net = simnet.ScaledSummitA2A(2)
	fmt.Printf("baseline            %.2f s/step\n", baseT)
	fmt.Printf("2× GPU + NVLink     %.2f s/step\n", core.SimulateGPUStep(gpu2).Time)
	fmt.Printf("2× interconnect     %.2f s/step\n", core.SimulateGPUStep(net2).Time)
	fmt.Println("(the interconnect is the lever — the paper's closing argument)")

	fmt.Println("\n=== equation-set cost (transform volumes per step, from the registry) ===")
	// The transform pipeline is the step's cost: each RHS evaluation
	// moves 3 inverse + 6 forward volumes for the velocity and 1
	// inverse + 3 forward per extra field (the flux products reuse the
	// velocity's physical-space scratch). RK2 evaluates the RHS twice.
	spec := spectral.SystemSpec{
		Nu:      1e-4,
		Forcing: spectral.ForcingSpec{KF: 2, Eps: 0.1},
		Scalars: []spectral.ScalarSpec{{Schmidt: 1}, {Schmidt: 0.7}},
		Omega:   1,
	}
	baseRes := core.SimulateGPUStep(core.DefaultPerf(18432, 3072, 2, pfft.PerSlab))
	fmt.Printf("%-16s %6s %18s %14s %22s\n", "system", "fields", "volumes/RHS", "rel. cost", "18432³ est. s/step")
	for _, name := range spectral.Systems() {
		sys, err := spectral.NewNamedSystem(name, spec)
		if err != nil {
			log.Fatal(err)
		}
		nf := sys.Fields()
		vols := 9 + 4*(nf-3)
		rel := float64(vols) / 9
		fmt.Printf("%-16s %6d %14d (%d+%d) %13.2fx %21.2f\n",
			name, nf, vols, 9, 4*(nf-3), rel, baseRes.Time*rel)
	}
	fmt.Println("(the registry makes the sweep extensible: a new equation set only has")
	fmt.Println(" to register a factory to appear in this table and in cmd/dns -system)")

	fmt.Println("\n=== what-if: pencil count sensitivity at 18432³ (ablation) ===")
	for _, np := range []int{4, 6, 8, 12} {
		cfg := core.DefaultPerf(18432, 3072, 2, pfft.PerSlab)
		cfg.NP = np
		r := core.SimulateGPUStep(cfg)
		fmt.Printf("np=%-3d time/step %.2f s\n", np, r.Time)
	}
	fmt.Println("(more pencils = finer batching overhead but unchanged slab-message size;")
	fmt.Println(" the paper picks the minimum np that fits GPU memory)")
}
