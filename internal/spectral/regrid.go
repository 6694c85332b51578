package spectral

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/mpi"
)

// Regridding: production campaigns at record resolutions do not start
// from random noise — they spectrally interpolate a developed field
// from a smaller grid onto the larger one (exact for band-limited
// data) and continue. This is how runs like the paper's 18432³ are
// seeded from earlier 8192³-class simulations.

// regridPacket carries one Fourier mode to its destination rank.
type regridPacket struct {
	Idx int // destination local index
	V   complex128
}

// Regrid transfers the velocity field of src onto dst, which must
// share the same communicator but may have a different (larger or
// smaller) grid size. Modes representable on both grids are copied
// (with the code-unit rescaling (N2/N1)³); Nyquist planes of the
// smaller grid are dropped, the standard band-limited convention.
// Regridding down keeps what the smaller grid can represent, which is
// more than its 2/3 band: a dealiased dst carries the modes between
// N2/3 and N2/2 as inert state (see Dealias23) — they decay and count
// in the spectral diagnostics but enter no product.
// Collective on the shared communicator.
func Regrid(dst, src *Solver) {
	if dst.comm != src.comm {
		panic("spectral: Regrid requires solvers on the same communicator")
	}
	n1, n2 := src.cfg.N, dst.cfg.N
	if n1 == n2 {
		for c := 0; c < 3; c++ {
			copy(dst.Uh[c], src.Uh[c])
		}
		return
	}
	p := src.comm.Size()
	scale := complex(float64(n2)/float64(n1), 0)
	scale = scale * scale * scale // code units carry N³

	for c := 0; c < 3; c++ {
		zero(dst.Uh[c])
	}

	// Walk local source modes, bin packets per destination rank.
	sendBufs := make([][]regridPacket, p)
	nxh1 := src.nxh
	mz1 := src.slab.MZ()
	kmax := min(n1, n2) / 2 // modes with any |k| ≥ kmax are dropped
	dstSlab := grid.NewSlab(n2, p, 0)
	for c := 0; c < 3; c++ {
		idx := 0
		for iz := 0; iz < mz1; iz++ {
			kz := grid.Wavenumber(src.slab.ZLo()+iz, n1)
			for iy := 0; iy < n1; iy++ {
				ky := grid.Wavenumber(iy, n1)
				for ix := 0; ix < nxh1; ix++ {
					v := src.Uh[c][idx]
					idx++
					if v == 0 {
						continue
					}
					if ix >= kmax || abs(ky) >= kmax || abs(kz) >= kmax {
						continue
					}
					gy2 := (ky + n2) % n2
					gz2 := (kz + n2) % n2
					owner := dstSlab.ZOwner(gz2)
					iz2 := gz2 - owner*dstSlab.MZ()
					localIdx := (iz2*n2+gy2)*dst.nxh + ix
					sendBufs[owner] = append(sendBufs[owner],
						regridPacket{Idx: c*dst.tr.FourierLen() + localIdx, V: v * scale})
				}
			}
		}
	}

	// Flatten and exchange with variable counts.
	sendcounts := make([]int, p)
	senddispls := make([]int, p)
	total := 0
	for d := 0; d < p; d++ {
		sendcounts[d] = len(sendBufs[d])
		senddispls[d] = total
		total += sendcounts[d]
	}
	send := make([]regridPacket, 0, total)
	for d := 0; d < p; d++ {
		send = append(send, sendBufs[d]...)
	}
	// Distribute receive counts.
	counts := make([]int, p)
	copy(counts, sendcounts)
	recvcounts := make([]int, p)
	mpi.Alltoall(src.comm, counts, recvcounts)
	recvdispls := make([]int, p)
	rtotal := 0
	for s := 0; s < p; s++ {
		recvdispls[s] = rtotal
		rtotal += recvcounts[s]
	}
	recv := make([]regridPacket, rtotal)
	mpi.Alltoallv(src.comm, send, sendcounts, senddispls, recv, recvcounts, recvdispls)

	fl := dst.tr.FourierLen()
	for _, pk := range recv {
		c := pk.Idx / fl
		dst.Uh[c][pk.Idx%fl] = pk.V
	}
	dst.time = src.time
	dst.step = src.step
}

func abs(i int) int {
	if i < 0 {
		return -i
	}
	return i
}

// Vorticity computes ω̂ = ik×û into three freshly allocated arrays in
// code units (local; no communication).
func (s *Solver) Vorticity() [3][]complex128 {
	var w [3][]complex128
	for c := 0; c < 3; c++ {
		w[c] = make([]complex128, s.tr.FourierLen())
	}
	n, mz, nxh := s.cfg.N, s.slab.MZ(), s.nxh
	idx := 0
	for iz := 0; iz < mz; iz++ {
		kz := s.kzs[iz]
		for iy := 0; iy < n; iy++ {
			ky := s.kys[iy]
			for ix := 0; ix < nxh; ix++ {
				kx := s.kxs[ix]
				u, v, ww := s.Uh[0][idx], s.Uh[1][idx], s.Uh[2][idx]
				// ω = i·k × u.
				w[0][idx] = mulIK(ky, ww) - mulIK(kz, v)
				w[1][idx] = mulIK(kz, u) - mulIK(kx, ww)
				w[2][idx] = mulIK(kx, v) - mulIK(ky, u)
				idx++
			}
		}
	}
	return w
}

// mulIK returns i·k·v.
func mulIK(k float64, v complex128) complex128 {
	return complex(-k*imag(v), k*real(v))
}

// VorticityEnstrophyCheck returns ½⟨ω·ω⟩ computed from the explicit
// vorticity field — it must equal Enstrophy() to round-off
// (collective).
func (s *Solver) VorticityEnstrophyCheck() float64 {
	w := s.Vorticity()
	n := s.cfg.N
	n3 := float64(n) * float64(n) * float64(n)
	inv := 1 / (n3 * n3)
	var sum float64
	idx := 0
	for iz := 0; iz < s.slab.MZ(); iz++ {
		for iy := 0; iy < n; iy++ {
			for ix := 0; ix < s.nxh; ix++ {
				wt := specWeight(ix, n)
				for c := 0; c < 3; c++ {
					v := w[c][idx]
					sum += wt * (real(v)*real(v) + imag(v)*imag(v)) * inv
				}
				idx++
			}
		}
	}
	out := []float64{0.5 * sum}
	mpi.AllreduceSum(s.comm, out)
	return out[0]
}

// SuggestDt returns the time step that attains the target advective
// Courant number (collective; costs three inverse transforms). A CFL
// target around 0.5 is typical for RK2 pseudo-spectral DNS.
func (s *Solver) SuggestDt(cflTarget float64) float64 {
	if cflTarget <= 0 {
		panic(fmt.Sprintf("spectral: invalid CFL target %g", cflTarget))
	}
	cflPerUnit := s.CFL(1.0)
	if cflPerUnit == 0 {
		return math.Inf(1)
	}
	return cflTarget / cflPerUnit
}
