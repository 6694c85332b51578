package core

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/pfft"
	"repro/internal/sched"
	"repro/internal/simnet"
)

// PerfConfig describes one DNS deployment whose time per RK2 step the
// discrete-event model predicts. The model replays the Fig 4 schedule
// of the executor — same pencil cycles, same stream assignment, same
// event dependencies — with durations drawn from the calibrated
// machine description and network model.
type PerfConfig struct {
	Machine hw.Machine
	Net     *simnet.A2AModel

	N     int // linear problem size
	Nodes int
	TPN   int // MPI ranks per node (6 = cfg A, 2 = cfg B/C)
	NP    int // pencils per slab
	Gran  pfft.Granularity

	// NV is the number of variables moved per transpose group and
	// Groups the number of transpose groups per RK2 step. The DNS
	// exchanges its three velocity components (and later the three
	// nonlinear-term components) together, twice per RK substage:
	// 4 groups of 3 variables = 12 variable-transforms per step.
	NV     int
	Groups int

	// Contention derates the network bandwidth of exchanges that are
	// overlapped with GPU transfer traffic (the §5.2 observation that
	// NVLink and NIC compete for host memory bandwidth). Applied to
	// PerPencil exchanges at 2 tasks/node only — with 6 tasks/node
	// each rank drives a single dedicated GPU and the paper observed
	// the eager path compensating; 1 disables it.
	Contention float64

	// PackCall is the host/API overhead of one packing
	// cudaMemcpy2DAsync; the per-pencil call count is proportional to
	// the total rank count (§5.2).
	PackCall float64
}

// DefaultPerf returns the calibrated configuration for one of the
// paper's standard cases. tpn is 6 (cfg A) or 2 (cfg B/C).
func DefaultPerf(n, nodes, tpn int, gran pfft.Granularity) PerfConfig {
	m := hw.Summit()
	return PerfConfig{
		Machine:    m,
		Net:        simnet.SummitA2A(),
		N:          n,
		Nodes:      nodes,
		TPN:        tpn,
		NP:         m.PencilsPerSlab(n, nodes),
		Gran:       gran,
		NV:         3,
		Groups:     4,
		Contention: 0.8,
		PackCall:   4e-6,
	}
}

// StepResult is the outcome of one simulated RK2 step.
type StepResult struct {
	Time   float64 // seconds per step
	Spans  []sched.Span
	Totals map[string]float64 // busy seconds per activity class
}

// ranks returns the total MPI rank count.
func (c PerfConfig) ranks() int { return c.TPN * c.Nodes }

// slabBytes is the per-rank volume of one transpose group (nv
// variables, single precision, as the paper counts).
func (c PerfConfig) slabBytes() float64 {
	n3 := float64(c.N) * float64(c.N) * float64(c.N)
	return 4 * float64(c.NV) * n3 / float64(c.ranks())
}

// xferRate is the effective per-rank host↔device transfer bandwidth.
func (c PerfConfig) xferRate() float64 {
	return c.Machine.HostXferRate / float64(c.TPN)
}

// gpuRate is the per-rank FFT pass rate (ranks share the node's GPUs).
func (c PerfConfig) gpuRate() float64 {
	gpusPerRank := float64(c.Machine.GPUsPerNode()) / float64(c.TPN)
	return c.Machine.GPUFFTRate * gpusPerRank
}

// p2pBytes is the point-to-point message size of one exchange at the
// configured granularity.
func (c PerfConfig) p2pBytes() float64 {
	if c.Gran == pfft.PerSlab {
		return simnet.P2PSlab(c.N, c.ranks(), c.NV)
	}
	return simnet.P2PPencil(c.N, c.ranks(), c.NV, c.NP)
}

// contentionThreshold is the P2P size below which overlapped 2-task
// exchanges suffer from GPU-transfer contention (§5.2): large streamed
// messages coexist with NVLink traffic, smaller ones lose bandwidth.
const contentionThreshold = 32 << 20

// Effective bandwidth curve of overlapped non-blocking exchanges with
// 6 tasks/node, fitted to the DNS behaviour the paper reports (§5.2's
// observation that case A in the full code beats the blocking
// standalone numbers at scale via the eager path and message-rate
// parallelism of 6 injecting ranks per node).
const (
	overlap6Sat  = 25.4e9
	overlap6Half = 96.5 * 1024
)

// a2aTime is the duration of one exchange at the configured
// granularity, with the §5.2 adjustments for overlapped exchanges.
func (c PerfConfig) a2aTime() float64 {
	p2p := c.p2pBytes()
	if c.Gran == pfft.PerPencil && c.TPN >= 6 {
		bw := overlap6Sat * p2p / (p2p + overlap6Half)
		return 2 * p2p * float64(c.ranks()) * float64(c.TPN) / bw
	}
	t := c.Net.Time(p2p, c.ranks(), c.TPN, c.Nodes)
	if c.Gran == pfft.PerPencil && p2p < contentionThreshold && c.Contention > 0 {
		t /= c.Contention
	}
	return t
}

// SimulateGPUStep predicts the time per RK2 step of the asynchronous
// GPU code in the given configuration, returning the schedule for
// timeline rendering (Fig 10).
func SimulateGPUStep(c PerfConfig) StepResult {
	sim := sched.NewSim()
	xfer := sched.NewResource("transfer")
	gpu := sched.NewResource("compute")
	net := sched.NewResource("network")

	pencil := c.slabBytes() / float64(c.NP)
	h2dT := pencil / c.xferRate()
	fftT := pencil / c.gpuRate()
	packT := pencil/c.xferRate() + float64(c.ranks())*c.PackCall
	unpackT := c.slabBytes() / (c.Machine.GPUPackRate * float64(c.Machine.GPUsPerNode()) / float64(c.TPN))

	var prevGroup *sched.Task
	for g := 0; g < c.Groups; g++ {
		// Region 1: pencil cycles with fused pack and the exchange.
		var d2hs []*sched.Task
		var a2as []*sched.Task
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
			d2h := sim.NewTask(fmt.Sprintf("g%d r1 pack:%d", g, ip), "d2h", xfer, packT, comp)
			d2hs = append(d2hs, d2h)
			if c.Gran == pfft.PerPencil {
				a2as = append(a2as, sim.NewTask(fmt.Sprintf("g%d a2a:%d", g, ip), "a2a", net, c.a2aTime(), d2h))
			}
		}
		if c.Gran == pfft.PerSlab {
			a2as = append(a2as, sim.NewTask(fmt.Sprintf("g%d a2a", g), "a2a", net, c.a2aTime(), d2hs...))
		}
		// MPI_WAIT + zero-copy unpack gate region 2.
		unpack := sim.NewTask(fmt.Sprintf("g%d unpack", g), "unpack", gpu, unpackT, a2as...)
		// Regions 2 and 3: pure pencil pipelines.
		gate := unpack
		for r := 2; r <= 3; r++ {
			var lastD2H *sched.Task
			prevComp = nil
			for ip := 0; ip < c.NP; ip++ {
				h2d := sim.NewTask(fmt.Sprintf("g%d r%d h2d:%d", g, r, ip), "h2d", xfer, h2dT, gate)
				cdeps := []*sched.Task{h2d}
				if prevComp != nil {
					cdeps = append(cdeps, prevComp)
				}
				comp := sim.NewTask(fmt.Sprintf("g%d r%d fft:%d", g, r, ip), "fft", gpu, fftT, cdeps...)
				prevComp = comp
				lastD2H = sim.NewTask(fmt.Sprintf("g%d r%d d2h:%d", g, r, ip), "d2h", xfer, h2dT, comp)
			}
			gate = lastD2H
		}
		prevGroup = gate
	}
	t := sim.Run()
	return StepResult{Time: t, Spans: sim.Spans(), Totals: sim.ClassTotals()}
}

// SimulateMPIOnly predicts the standalone all-to-all kernel of §4.1
// and Fig 9's dotted line: only the exchanges, full bandwidth, no GPU
// work.
func SimulateMPIOnly(c PerfConfig) StepResult {
	sim := sched.NewSim()
	net := sched.NewResource("network")
	cc := c
	cc.Contention = 1
	var prev *sched.Task
	for g := 0; g < c.Groups; g++ {
		nmsg := 1
		if c.Gran == pfft.PerPencil {
			nmsg = c.NP
		}
		for i := 0; i < nmsg; i++ {
			deps := []*sched.Task{}
			if prev != nil {
				deps = append(deps, prev)
			}
			prev = sim.NewTask(fmt.Sprintf("g%d a2a:%d", g, i), "a2a", net, cc.a2aTime(), deps...)
		}
	}
	t := sim.Run()
	return StepResult{Time: t, Spans: sim.Spans(), Totals: sim.ClassTotals()}
}

// CPUPerfConfig describes the synchronous pencil-decomposed CPU
// baseline of Table 3 (the code of Yeung et al. [23]).
type CPUPerfConfig struct {
	Machine hw.Machine
	Net     *simnet.A2AModel
	N       int
	Nodes   int
	TPN     int // ranks (cores) per node; the paper uses 32
	NV      int
	Groups  int
	// NodeLocalBW is the effective bandwidth of the intra-node row
	// all-to-all (through shared memory, not the NIC).
	NodeLocalBW float64
}

// DefaultCPUPerf returns the calibrated CPU baseline configuration.
func DefaultCPUPerf(n, nodes int) CPUPerfConfig {
	return CPUPerfConfig{
		Machine:     hw.Summit(),
		Net:         simnet.SummitA2A(),
		N:           n,
		Nodes:       nodes,
		TPN:         32,
		NV:          3,
		Groups:      4,
		NodeLocalBW: 100e9,
	}
}

// SimulateCPUStep predicts the time per RK2 step of the synchronous
// CPU code: per transpose group, three FFT passes, the intra-node row
// transpose (Pr = ranks/node) and the inter-node column transpose
// (Pc = nodes), plus host packing — all serial, as the code is
// synchronous.
func SimulateCPUStep(c CPUPerfConfig) StepResult {
	sim := sched.NewSim()
	cpu := sched.NewResource("cpu")
	net := sched.NewResource("network")

	p := c.TPN * c.Nodes
	n3 := float64(c.N) * float64(c.N) * float64(c.N)
	rankBytes := 4 * float64(c.NV) * n3 / float64(p)
	nodeBytes := rankBytes * float64(c.TPN)

	fftPass := nodeBytes / c.Machine.CPUFFTRate
	packT := nodeBytes / c.Machine.CPUPackRate
	rowT := 2 * nodeBytes / c.NodeLocalBW
	// Column transpose: Pc = nodes, one rank of each of the TPN column
	// communicators per node. The TPN rank-level messages between a
	// node pair traverse the same links concurrently, so the network
	// model sees their aggregate as the effective message size.
	colP2P := rankBytes / float64(c.Nodes) * float64(c.TPN)
	colT := 2 * nodeBytes / c.Net.NodeBandwidth(colP2P, c.Nodes)

	var prev *sched.Task
	dep := func() []*sched.Task {
		if prev == nil {
			return nil
		}
		return []*sched.Task{prev}
	}
	for g := 0; g < c.Groups; g++ {
		prev = sim.NewTask(fmt.Sprintf("g%d fftx", g), "cpu", cpu, fftPass, dep()...)
		prev = sim.NewTask(fmt.Sprintf("g%d pack-row", g), "pack", cpu, packT, dep()...)
		prev = sim.NewTask(fmt.Sprintf("g%d row a2a", g), "a2a", net, rowT, dep()...)
		prev = sim.NewTask(fmt.Sprintf("g%d ffty", g), "cpu", cpu, fftPass, dep()...)
		prev = sim.NewTask(fmt.Sprintf("g%d pack-col", g), "pack", cpu, packT, dep()...)
		prev = sim.NewTask(fmt.Sprintf("g%d col a2a", g), "a2a", net, colT, dep()...)
		prev = sim.NewTask(fmt.Sprintf("g%d fftz", g), "cpu", cpu, fftPass, dep()...)
	}
	t := sim.Run()
	return StepResult{Time: t, Spans: sim.Spans(), Totals: sim.ClassTotals()}
}
