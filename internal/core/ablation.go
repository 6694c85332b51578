package core

import (
	"fmt"

	"repro/internal/pfft"
	"repro/internal/sched"
)

// This file holds the design-choice ablations DESIGN.md calls out:
// §3.1's adoption of the 1D slab decomposition for the GPU code (vs
// the traditional 2D pencil decomposition), and the automatic choice
// of MPI configuration per scale.

// SimulateGPU2DPencilStep models the hypothetical alternative the
// paper argues against in §3.1: the same GPU pipeline on a 2D pencil
// decomposition with pr ranks/node × pc node-groups (pr·pc ranks
// total across tpn·nodes... precisely pr = TPN so the row transpose is
// intra-node, pc = Nodes). Each transform group needs TWO all-to-alls
// (row and column) with correspondingly smaller messages, plus an
// extra unpack pass — the cost the slab design avoids.
func SimulateGPU2DPencilStep(c PerfConfig) StepResult {
	sim := sched.NewSim()
	xfer := sched.NewResource("transfer")
	gpu := sched.NewResource("compute")
	net := sched.NewResource("network")

	pr := c.TPN   // row communicator: intra-node
	pc := c.Nodes // column communicator: one rank per node and row
	p := pr * pc

	slab := c.slabBytes() // per-rank volume of one group (same formula)
	pencil := slab / float64(c.NP)
	h2dT := pencil / c.xferRate()
	fftT := pencil / c.gpuRate()
	packT := pencil/c.xferRate() + float64(p)*c.PackCall
	unpackT := slab / (c.Machine.GPUPackRate * float64(c.Machine.GPUsPerNode()) / float64(c.TPN))

	// Row all-to-all: node-local, bounded by host memory streaming.
	const nodeLocalBW = 100e9
	rowT := 2 * slab * float64(c.TPN) / nodeLocalBW
	// Column all-to-all: across nodes; the TPN per-node flows to the
	// same destination node coalesce for the network model.
	colP2P := slab / float64(pc) * float64(c.TPN)
	colT := 2 * slab * float64(c.TPN) / c.Net.NodeBandwidth(colP2P, c.Nodes)

	var prevGroup *sched.Task
	for g := 0; g < c.Groups; g++ {
		// Region 1 pipeline ending in the row exchange.
		var d2hs []*sched.Task
		var prevComp *sched.Task
		for ip := 0; ip < c.NP; ip++ {
			deps := []*sched.Task{}
			if prevGroup != nil {
				deps = append(deps, prevGroup)
			}
			h2d := sim.NewTask(fmt.Sprintf("g%d r1 h2d:%d", g, ip), "h2d", xfer, h2dT, deps...)
			cdeps := []*sched.Task{h2d}
			if prevComp != nil {
				cdeps = append(cdeps, prevComp)
			}
			comp := sim.NewTask(fmt.Sprintf("g%d r1 fft:%d", g, ip), "fft", gpu, fftT, cdeps...)
			prevComp = comp
			d2hs = append(d2hs, sim.NewTask(fmt.Sprintf("g%d r1 pack:%d", g, ip), "d2h", xfer, packT, comp))
		}
		row := sim.NewTask(fmt.Sprintf("g%d row a2a", g), "a2a", net, rowT, d2hs...)
		unpack1 := sim.NewTask(fmt.Sprintf("g%d unpack1", g), "unpack", gpu, unpackT, row)
		// Region 2 pipeline ending in the column exchange.
		var d2hs2 []*sched.Task
		prevComp = nil
		for ip := 0; ip < c.NP; ip++ {
			h2d := sim.NewTask(fmt.Sprintf("g%d r2 h2d:%d", g, ip), "h2d", xfer, h2dT, unpack1)
			cdeps := []*sched.Task{h2d}
			if prevComp != nil {
				cdeps = append(cdeps, prevComp)
			}
			comp := sim.NewTask(fmt.Sprintf("g%d r2 fft:%d", g, ip), "fft", gpu, fftT, cdeps...)
			prevComp = comp
			d2hs2 = append(d2hs2, sim.NewTask(fmt.Sprintf("g%d r2 pack:%d", g, ip), "d2h", xfer, packT, comp))
		}
		col := sim.NewTask(fmt.Sprintf("g%d col a2a", g), "a2a", net, colT, d2hs2...)
		unpack2 := sim.NewTask(fmt.Sprintf("g%d unpack2", g), "unpack", gpu, unpackT, col)
		// Region 3: final transform direction.
		gate := unpack2
		var lastD2H *sched.Task
		prevComp = nil
		for ip := 0; ip < c.NP; ip++ {
			h2d := sim.NewTask(fmt.Sprintf("g%d r3 h2d:%d", g, ip), "h2d", xfer, h2dT, gate)
			cdeps := []*sched.Task{h2d}
			if prevComp != nil {
				cdeps = append(cdeps, prevComp)
			}
			comp := sim.NewTask(fmt.Sprintf("g%d r3 fft:%d", g, ip), "fft", gpu, fftT, cdeps...)
			prevComp = comp
			lastD2H = sim.NewTask(fmt.Sprintf("g%d r3 d2h:%d", g, ip), "d2h", xfer, h2dT, comp)
		}
		prevGroup = lastD2H
	}
	t := sim.Run()
	return StepResult{Time: t, Spans: sim.Spans()}
}

// DecompositionAblation compares the adopted 1D slab design against
// the 2D pencil alternative at one scale, for the paper's §3.1
// argument: "we have accordingly adopted the 1D (slabs) decomposition".
type DecompositionAblation struct {
	Nodes, N   int
	Slab1D     float64 // best slab configuration (cfg C)
	Pencil2D   float64 // hypothetical 2D GPU code
	SlabWinPct float64 // (Pencil2D/Slab1D − 1)·100
}

// AblateDecomposition runs the comparison over the standard sweep.
func AblateDecomposition() []DecompositionAblation {
	out := make([]DecompositionAblation, 0, len(standardCases))
	for _, cse := range standardCases {
		slab := SimulateGPUStep(DefaultPerf(cse.N, cse.Nodes, 2, pfft.PerSlab)).Time
		pencil := SimulateGPU2DPencilStep(DefaultPerf(cse.N, cse.Nodes, 6, pfft.PerSlab)).Time
		out = append(out, DecompositionAblation{
			Nodes: cse.Nodes, N: cse.N,
			Slab1D: slab, Pencil2D: pencil,
			SlabWinPct: (pencil/slab - 1) * 100,
		})
	}
	return out
}

// BestConfig evaluates the three MPI configurations of the paper at
// one scale and returns the fastest (the per-size choice Table 4
// makes).
func BestConfig(n, nodes int) (tpn int, gran pfft.Granularity, time float64) {
	type cand struct {
		tpn  int
		gran pfft.Granularity
	}
	best := -1.0
	for _, c := range []cand{{6, pfft.PerPencil}, {2, pfft.PerPencil}, {2, pfft.PerSlab}} {
		t := SimulateGPUStep(DefaultPerf(n, nodes, c.tpn, c.gran)).Time
		if best < 0 || t < best {
			best, tpn, gran = t, c.tpn, c.gran
		}
	}
	return tpn, gran, best
}

// AblateContention quantifies the §5.2 host-memory contention effect:
// the config-B step time with and without the derating.
func AblateContention(n, nodes int) (with, without float64) {
	cfg := DefaultPerf(n, nodes, 2, pfft.PerPencil)
	with = SimulateGPUStep(cfg).Time
	cfg.Contention = 1
	without = SimulateGPUStep(cfg).Time
	return with, without
}

// AblatePencilCount sweeps np at fixed configuration, the batching-
// granularity trade §3.5 discusses (more pencils = less GPU memory but
// more per-pencil overheads).
func AblatePencilCount(n, nodes int, nps []int) []float64 {
	out := make([]float64, 0, len(nps))
	for _, np := range nps {
		cfg := DefaultPerf(n, nodes, 2, pfft.PerSlab)
		cfg.NP = np
		out = append(out, SimulateGPUStep(cfg).Time)
	}
	return out
}
