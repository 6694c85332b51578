package spectral

import (
	"math"

	"repro/internal/grid"
)

// The Fourier slab layout. Every spectral field is stored [mz][n][nxh]
// in code units (N³·û): the rank holds the global z-planes
// zLo … zLo+mz−1, each plane n ky rows (grid.Wavenumber gives the
// signed wavenumber of a storage row), each row the nxh = N/2+1 bins
// kx = 0 … N/2 of the half spectrum. This file is the one place outside
// the step kernels that knows it: the diagnostics, initial conditions,
// forcing and regrid walk the local slab row by row with walkRows,
// weigh a bin with bin, and address single modes with modeIndex and
// modeGID. The step kernels and the band fields' readers walk the
// in-band row list s.rows built here instead (see DESIGN §9).

// bandRow is one x-row of the local Fourier slab inside the band: its
// storage offset in a slab field, its offset in a band field, z-plane
// and ky storage row. A band field — a right-hand side or a stage
// buffer — stores only the band: row ri of s.rows at boff = ri·kb, its
// kb in-band modes contiguous, so it holds len(s.rows)·kb elements.
// Without dealiasing the band is every mode and boff = off: the band
// layout is the slab layout.
type bandRow struct {
	off, boff int
	iz, iy    int32
}

// initModes builds the wavenumber tables of the local slab and the
// row list of the band the solver dealiases and truncates to.
func (s *Solver) initModes(band grid.Band) {
	n, mz := s.cfg.N, s.slab.MZ()
	s.kxs = make([]float64, s.nxh)
	for i := range s.kxs {
		s.kxs[i] = float64(i)
	}
	s.kys = make([]float64, n)
	for i := range s.kys {
		s.kys[i] = float64(grid.Wavenumber(i, n))
	}
	s.kzs = make([]float64, mz)
	for i := range s.kzs {
		s.kzs[i] = float64(grid.Wavenumber(s.slab.ZLo()+i, n))
	}
	squares := func(ks []float64) []int {
		k2 := make([]int, len(ks))
		for i, k := range ks {
			k2[i] = int(k * k)
		}
		return k2
	}
	s.k2x, s.k2y, s.k2z = squares(s.kxs), squares(s.kys), squares(s.kzs)

	s.kb = band.Width(0, s.nxh)
	s.rows = make([]bandRow, 0, band.Count(s.slab.ZLo(), s.slab.ZLo()+mz)*band.Count(0, n))
	for iz := 0; iz < mz; iz++ {
		for iy := 0; iy < n; iy++ {
			if band.Has(s.slab.ZLo()+iz) && band.Has(iy) {
				s.rows = append(s.rows, bandRow{off: (iz*n + iy) * s.nxh, boff: len(s.rows) * s.kb, iz: int32(iz), iy: int32(iy)})
			}
		}
	}
}

// rowWalk visits the x-rows of the local slab in storage order:
//
//	for r := s.walkRows(); r.next(); {
//		row := f[r.off : r.off+s.nxh] // bin ix is the mode kx = ix
//	}
//
// A row carries its storage offset, ky storage row iy, global z index
// gz, signed wavenumbers ky and kz, and k2yz = ky² + kz². The walk is
// per row, not per mode: each caller keeps its x loop and its own
// accumulation expression inline, which keeps its sums in registers and
// every output bit where it was.
type rowWalk struct {
	s               *Solver
	off, iy, iz, gz int
	ky, kz, k2yz    float64
}

// walkRows starts a walk before the first row.
func (s *Solver) walkRows() rowWalk {
	return rowWalk{s: s, off: -s.nxh, iy: -1, gz: s.slab.ZLo()}
}

// next advances to the next row, reporting false past the last.
func (r *rowWalk) next() bool {
	r.off += r.s.nxh
	if r.iy++; r.iy == len(r.s.kys) {
		r.iy = 0
		r.iz++
		r.gz++
	}
	if r.iz == len(r.s.kzs) {
		return false
	}
	r.ky, r.kz = r.s.kys[r.iy], r.s.kzs[r.iz]
	r.k2yz = r.ky*r.ky + r.kz*r.kz
	return true
}

// bin returns |k|² of the row's bin ix and its Hermitian weight. The
// wavenumbers are integers, so k² is exact in any summation order.
func (r *rowWalk) bin(ix int) (k2, w float64) {
	return float64(ix*ix) + r.k2yz, specWeight(ix, len(r.s.kys))
}

// specWeight is the conjugate-symmetry weight of an x bin in the half
// spectrum: interior bins represent two modes (±kx), the kx=0 and
// kx=N/2 planes one each.
func specWeight(ix, n int) float64 {
	if ix == 0 || ix == n/2 {
		return 1
	}
	return 2
}

// codeScale is N³, the factor from û_math to a stored coefficient.
func (s *Solver) codeScale() float64 {
	return float64(s.cfg.N) * float64(s.cfg.N) * float64(s.cfg.N)
}

// modeNorm is the factor 1/N⁶ that turns a product of two stored
// coefficients into one of û_math.
func (s *Solver) modeNorm() float64 {
	n3 := s.codeScale()
	return 1 / (n3 * n3)
}

// shell is the integer spectral shell of a mode: |k| in [k−½, k+½).
func shell(k2 float64) int { return int(math.Sqrt(k2) + 0.5) }

// newSpectrum allocates a shell-summed spectrum. Shells extend to the
// corner of the wavenumber cube (√3·N/2), so that its sum is the total.
func (s *Solver) newSpectrum() []float64 {
	return make([]float64, int(math.Sqrt(3)*float64(s.cfg.N)/2)+2)
}

// modeIndex locates the mode with x bin ix and y, z wavenumbers ky, kz
// (signed, or storage rows: both are taken mod N) on the slab
// decomposition: the rank that stores it and its index in that rank's
// fields.
func (s *Solver) modeIndex(ix, ky, kz int) (rank, idx int) {
	n := s.cfg.N
	gy, gz := (ky+n)%n, (kz+n)%n
	rank = s.slab.ZOwner(gz)
	return rank, ((gz-rank*s.slab.MZ())*n+gy)*s.nxh + ix
}

// modeGID is the global linear index of the mode (ix, iy, gz), the
// same on every rank count: the key of its random streams.
func (s *Solver) modeGID(ix, iy, gz int) uint64 {
	return uint64((gz*s.cfg.N+iy)*s.nxh + ix)
}

// canonical finds the mode that carries the values of (ix, iy, gz)'s
// conjugate pair. On the kx ∈ {0, N/2} planes the half spectrum stores
// both modes of a pair, and the lexicographically smaller (gz, iy) is
// canonical; off them every mode is its own. It returns the canonical
// mode's storage row and z index and how the mode relates to it: +1 it
// is the mode, −1 its conjugate partner (the value is the conjugate),
// 0 a self-conjugate mode (the value is real).
func canonical(ix, iy, gz, n int) (cy, cz, rel int) {
	if ix != 0 && ix != n/2 {
		return iy, gz, 1
	}
	py, pz := (n-iy)%n, (n-gz)%n // the partner (−ky, −kz)
	switch {
	case py == iy && pz == gz:
		return iy, gz, 0
	case gz > pz || (gz == pz && iy > py):
		return py, pz, -1
	}
	return iy, gz, 1
}
