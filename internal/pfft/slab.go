package pfft

import (
	"fmt"

	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/transpose"
)

// SlabC2C performs distributed complex 3D FFTs on a 1D slab
// decomposition. FourierToPhysical applies inverse transforms in the
// paper's y, z, x order (one all-to-all between y and z);
// PhysicalToFourier applies forward transforms in x, z, y order.
type SlabC2C struct {
	comm *mpi.Comm
	s    grid.Slab
	n    int
	by   *fft.Batch // y transforms on the Fourier-side slab (per z-plane)
	bz   *fft.Batch // z transforms on the physical-side slab (per y-plane)
	bx   *fft.Batch // x transforms on the physical-side slab (per y-plane)
	pack []complex128
	recv []complex128
}

// NewSlabC2C builds the plans and communication buffers for an N³
// transform over the ranks of comm.
func NewSlabC2C(comm *mpi.Comm, n int) *SlabC2C {
	s := grid.NewSlab(n, comm.Size(), comm.Rank())
	f := &SlabC2C{
		comm: comm,
		s:    s,
		n:    n,
		by:   fft.NewBatch(n, n, n, 1, n, 1), // along y, x fastest
		bz:   fft.NewBatch(n, n, n, 1, n, 1), // along z, x fastest
		bx:   fft.NewBatch(n, n, 1, n, 1, n), // along x, contiguous
		pack: make([]complex128, s.MZ()*n*n),
		recv: make([]complex128, s.MZ()*n*n),
	}
	return f
}

// Slab reports the decomposition geometry.
func (f *SlabC2C) Slab() grid.Slab { return f.s }

// LocalLen is the number of complex elements in one local slab.
func (f *SlabC2C) LocalLen() int { return f.s.MZ() * f.n * f.n }

// FourierToPhysical transforms the z-distributed Fourier slab
// four=[mz][ny][nx] into the y-distributed physical slab
// phys=[my][nz][nx], applying the 1/N³ normalization.
func (f *SlabC2C) FourierToPhysical(phys, four []complex128) {
	n, mz, my := f.n, f.s.MZ(), f.s.MY()
	f.checkLen(phys, four)
	// 1) inverse FFT along y, plane by plane.
	for iz := 0; iz < mz; iz++ {
		plane := four[iz*n*n : (iz+1)*n*n]
		f.by.Inverse(plane, plane)
	}
	// 2) pack y→z, all-to-all, unpack.
	transpose.PackYZ(f.pack, four, n, n, mz, f.comm.Size())
	mpi.Alltoall(f.comm, f.pack, f.recv)
	transpose.UnpackYZ(phys, f.recv, n, n, my, f.comm.Size())
	// 3) inverse FFT along z, then x, per y-plane.
	for iy := 0; iy < my; iy++ {
		plane := phys[iy*n*n : (iy+1)*n*n]
		f.bz.Inverse(plane, plane)
		f.bx.Inverse(plane, plane)
	}
}

// PhysicalToFourier transforms the y-distributed physical slab
// phys=[my][nz][nx] into the z-distributed Fourier slab
// four=[mz][ny][nx], unnormalized (the exact adjoint ordering x, z, y
// of FourierToPhysical).
func (f *SlabC2C) PhysicalToFourier(four, phys []complex128) {
	n, mz, my := f.n, f.s.MZ(), f.s.MY()
	f.checkLen(phys, four)
	for iy := 0; iy < my; iy++ {
		plane := phys[iy*n*n : (iy+1)*n*n]
		f.bx.Forward(plane, plane)
		f.bz.Forward(plane, plane)
	}
	transpose.PackZY(f.pack, phys, n, n, my, f.comm.Size())
	mpi.Alltoall(f.comm, f.pack, f.recv)
	transpose.UnpackZY(four, f.recv, n, n, mz, f.comm.Size())
	for iz := 0; iz < mz; iz++ {
		plane := four[iz*n*n : (iz+1)*n*n]
		f.by.Forward(plane, plane)
	}
}

func (f *SlabC2C) checkLen(phys, four []complex128) {
	if len(phys) != f.LocalLen() || len(four) != f.LocalLen() {
		panic(fmt.Sprintf("pfft: slab buffers need %d elements, got phys %d four %d",
			f.LocalLen(), len(phys), len(four)))
	}
}
