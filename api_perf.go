package repro

import (
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/hw"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// --- Performance model ------------------------------------------------------

// Machine is a hardware description; Summit returns the paper's target.
type Machine = hw.Machine

// Summit returns the calibrated Summit (IBM AC922) description.
func Summit() Machine { return hw.Summit() }

// A2AModel predicts all-to-all bandwidth; SummitA2A is calibrated to
// the paper's Table 2.
type A2AModel = simnet.A2AModel

// SummitA2A returns the calibrated network model.
func SummitA2A() *A2AModel { return simnet.SummitA2A() }

// CopyCost models strided host↔device copies (Figs 7–8).
type CopyCost = cuda.CopyCost

// SummitCopyCost returns the calibrated copy cost model.
func SummitCopyCost() CopyCost { return cuda.SummitCopyCost() }

// PerfConfig describes one deployment for the step-time model.
type PerfConfig = core.PerfConfig

// StepResult is a simulated step (time, schedule spans).
type StepResult = core.StepResult

// DefaultPerf returns the calibrated configuration for a paper case.
func DefaultPerf(n, nodes, tpn int, gran Granularity) PerfConfig {
	return core.DefaultPerf(n, nodes, tpn, gran)
}

// SimulateGPUStep predicts one RK2 step of the asynchronous GPU code.
func SimulateGPUStep(c PerfConfig) StepResult { return core.SimulateGPUStep(c) }

// Paper artifacts.
var (
	Table3             = core.Table3
	Table4             = core.Table4
	Fig9               = core.Fig9
	Fig10              = core.Fig10
	StrongScaling18432 = core.StrongScaling18432
	BestConfig         = core.BestConfig
)

// Timeline rendering (Fig 10 style).
type Timeline = trace.Timeline

// RenderTimelines draws several schedules on a shared normalized axis.
func RenderTimelines(tls []Timeline, width int) string {
	return trace.RenderComparison(tls, width)
}
