package spectral

import (
	"fmt"
	"math"

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
		clear(dst.Uh[c])
	}

	// Walk local source modes, bin packets per destination rank.
	sendBufs := make([][]regridPacket, p)
	kmax := min(n1, n2) / 2 // modes with any |k| ≥ kmax are dropped
	for c := 0; c < 3; c++ {
		for r := src.walkRows(); r.next(); {
			if math.Abs(r.ky) >= float64(kmax) || math.Abs(r.kz) >= float64(kmax) {
				continue
			}
			for ix, v := range src.Uh[c][r.off : r.off+kmax] {
				if v == 0 {
					continue
				}
				owner, idx := dst.modeIndex(ix, int(r.ky), int(r.kz))
				sendBufs[owner] = append(sendBufs[owner],
					regridPacket{Idx: c*dst.tr.FourierLen() + idx, V: v * scale})
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

// mulIK returns i·k·v.
func mulIK(k float64, v complex128) complex128 {
	return complex(-k*imag(v), k*real(v))
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
