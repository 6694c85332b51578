package core

import (
	"testing"

	"repro/internal/pfft"
	"repro/internal/simnet"
)

// These tests pin the §6 conclusions as model-level what-ifs.

func TestFasterGPUsApproachButCannotBeatMPIOnly(t *testing.T) {
	// Fig 9's argument: "Faster GPUs or optimization to the GPU kernels
	// alone can at best approach the performance of the dotted green
	// line."
	base := DefaultPerf(18432, 3072, 2, pfft.PerSlab)
	mpiOnly := SimulateMPIOnly(base).Time
	cfg := base
	cfg.Machine = cfg.Machine.WithGPUScale(100).WithTransferScale(100)
	accelerated := SimulateGPUStep(cfg).Time
	if accelerated < mpiOnly {
		t.Errorf("infinite GPUs beat the MPI bound: %.2f < %.2f", accelerated, mpiOnly)
	}
	normal := SimulateGPUStep(base).Time
	if accelerated >= normal {
		t.Errorf("faster hardware did not help at all: %.2f vs %.2f", accelerated, normal)
	}
	// With absurdly fast GPUs the step is within 10% of the bound.
	if (accelerated-mpiOnly)/mpiOnly > 0.10 {
		t.Errorf("accelerated step %.2f not approaching MPI-only %.2f", accelerated, mpiOnly)
	}
}

func TestFasterNetworkIsTheRealLever(t *testing.T) {
	// §6: further gains depend on all-to-all improvements. A 2× network
	// must cut the 18432³ step time far more than a 2× GPU.
	base := DefaultPerf(18432, 3072, 2, pfft.PerSlab)
	baseTime := SimulateGPUStep(base).Time

	gpu2 := base
	gpu2.Machine = gpu2.Machine.WithGPUScale(2).WithTransferScale(2)
	gpuGain := baseTime - SimulateGPUStep(gpu2).Time

	net2 := base
	net2.Net = scaledNet(2)
	netGain := baseTime - SimulateGPUStep(net2).Time

	if netGain <= 2*gpuGain {
		t.Errorf("network lever (%.2fs) not dominant over GPU lever (%.2fs)", netGain, gpuGain)
	}
}

// scaledNet builds a Table-2-calibrated model with all bandwidths
// scaled by f.
func scaledNet(f float64) *simnet.A2AModel {
	return simnet.ScaledSummitA2A(f)
}

func TestHostMemoryGatesTheProblemSize(t *testing.T) {
	// §3.1's dense-node premise: halve the DDR and 18432³ no longer
	// fits on 3072 nodes.
	m := DefaultPerf(18432, 3072, 2, pfft.PerSlab).Machine
	if err := m.CheckFit(18432, 3072, 4); err != nil {
		t.Fatalf("baseline should fit: %v", err)
	}
	small := m.WithHostMemory(m.HostMemory / 2)
	if err := small.CheckFit(18432, 3072, 4); err == nil {
		t.Error("half the host memory should not fit 18432³ on 3072 nodes")
	}
}
