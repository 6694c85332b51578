package hw

// What-if transforms of the machine description, for the §6-style
// questions the paper closes with ("further gains in performance will
// depend on ... hardware innovations that improve the performance of
// the all-to-all communication"): scale one subsystem and rerun the
// step-time model.

// WithGPUScale returns a copy with the GPU compute rates multiplied by
// f (the "faster GPUs can at best approach the MPI-only line" argument
// of Fig 9).
func (m Machine) WithGPUScale(f float64) Machine {
	m2 := m
	m2.GPUFFTRate *= f
	m2.GPUPackRate *= f
	return m2
}

// WithTransferScale returns a copy with the host↔device path scaled by
// f (NVLink + host memory).
func (m Machine) WithTransferScale(f float64) Machine {
	m2 := m
	m2.HostXferRate *= f
	m2.NVLinkPerSocket *= f
	m2.CPUMemBWPerSocket *= f
	return m2
}

// WithHostMemory returns a copy with a different per-node DDR capacity
// (the dense-node premise of §3.1: big host memory is what allows the
// 1D decomposition).
func (m Machine) WithHostMemory(bytes float64) Machine {
	m2 := m
	m2.HostMemory = bytes
	return m2
}
