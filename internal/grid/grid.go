// Package grid describes the domain decompositions of the paper: the
// 1D slab decomposition adopted by the new GPU code (Fig 1 left; the
// 2D pencil decomposition of Fig 1 right is transpose.PencilLayout),
// the division of a slab into np pencils for out-of-core GPU batching
// (Fig 3), and the further vertical split across the GPUs of one MPI
// rank (Fig 5). It also provides the wavenumber bookkeeping of the
// spectral method.
package grid

import "fmt"

// Slab is the 1D decomposition: rank r of P holds N/P contiguous x-y
// planes in Fourier space (z-distributed) and N/P contiguous x-z
// planes in physical space (y-distributed).
type Slab struct {
	N    int // linear problem size
	P    int // number of MPI ranks
	Rank int
}

// NewSlab validates divisibility (load balancing requires P | N, as
// §3.5 of the paper notes) and returns the geometry for one rank.
func NewSlab(n, p, rank int) Slab {
	if p < 1 || n < 1 || n%p != 0 {
		panic(fmt.Sprintf("grid: slab requires P|N, got N=%d P=%d", n, p))
	}
	if rank < 0 || rank >= p {
		panic(fmt.Sprintf("grid: rank %d out of range [0,%d)", rank, p))
	}
	return Slab{N: n, P: p, Rank: rank}
}

// MZ is the local z extent (planes per slab) in Fourier space.
func (s Slab) MZ() int { return s.N / s.P }

// MY is the local y extent in physical space (after the transpose).
func (s Slab) MY() int { return s.N / s.P }

// ZLo returns the first global z index owned by the rank.
func (s Slab) ZLo() int { return s.Rank * s.MZ() }

// YLo returns the first global y index owned by the rank (physical).
func (s Slab) YLo() int { return s.Rank * s.MY() }

// ZOwner reports which rank owns global z index iz in Fourier space.
func (s Slab) ZOwner(iz int) int { return iz / s.MZ() }

// Wavenumber maps a storage index i on an N-point grid to its signed
// wavenumber: 0,1,…,N/2,−N/2+1,…,−1.
func Wavenumber(i, n int) int {
	if i <= n/2 {
		return i
	}
	return i - n
}

// DealiasKmax is the 2/3-rule band as an integer: modes with any
// |k_i| > N/3 are zeroed when forming nonlinear products, so the
// largest |k_i| a dealiased run retains is ⌊N/3⌋ (an integer k exceeds
// N/3 exactly when it exceeds ⌊N/3⌋). The solver's mask, the random initial spectrum
// and the band the solver hands its transform engine all come from
// here. The band is alias-free only when 3 ∤ N: a product of kept
// modes reaches |p_i + q_i| ≤ 2·kmax, which aliases onto a kept mode
// unless N > 3·kmax. When 3 | N the plane |k_i| = N/3 is kept, and a
// pair with p_i + q_i = 2N/3 aliases onto −N/3.
func DealiasKmax(n int) int { return n / 3 }

// Band is the set of modes a band-limited transform retains on an
// N-point grid: every |k_i| ≤ Kmax. Kmax = N/2 retains everything.
type Band struct{ N, Kmax int }

// NewBand returns the band |k_i| ≤ kmax; kmax < 0 or ≥ N/2 is the full
// band.
func NewBand(n, kmax int) Band {
	if kmax < 0 || kmax > n/2 {
		kmax = n / 2
	}
	return Band{N: n, Kmax: kmax}
}

// Has reports whether storage index i of a full (y or z) axis is in
// the band.
func (b Band) Has(i int) bool {
	k := Wavenumber(i, b.N)
	return -b.Kmax <= k && k <= b.Kmax
}

// Gap returns the storage indices [lo, hi) of a full axis that lie
// outside the band — one contiguous run around the Nyquist index,
// lo == hi when the band is full.
func (b Band) Gap() (lo, hi int) {
	lo = b.Kmax + 1
	return lo, max(lo, b.N-b.Kmax)
}

// Count is the number of in-band storage indices in the span [lo, hi)
// of a full (y or z) axis, 0 ≤ lo ≤ hi ≤ N.
func (b Band) Count(lo, hi int) int {
	gapLo, gapHi := b.Gap()
	return hi - lo - max(0, min(hi, gapHi)-max(lo, gapLo))
}

// Width is the number of in-band indices in the span [lo, hi) of the
// half-spectrum x axis (whose storage index is its wavenumber).
func (b Band) Width(lo, hi int) int {
	return max(0, min(hi, b.Kmax+1)-lo)
}
