package pfft

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/exchange"
	"repro/internal/grid"
	"repro/internal/mpi"
)

// The bitwise-identity tests prove the grids agree with each other, not
// that they are right: every grid shares the fft kernels. This oracle
// shares nothing with them — a direct O(N⁶) evaluation of the 3-D DFT
// sums with math.Sincos twiddles, no internal/fft import.

// oracle holds a global test field and its naive transforms.
type oracle struct {
	n    int
	phys []float64    // u(x,y,z) at (gy·N+gz)·N+gx
	spec []complex128 // Σ u·e^{-2πi k·x/N}, unnormalized, at (gz·N+gy)·Nxh+gx
	back []float64    // (1/N³) Σ_k spec·e^{+2πi k·x/N} over the full spectrum
}

// newOracle holds pencilField on the N³ grid, with room for its sums.
func newOracle(n int) *oracle {
	o := &oracle{n: n, phys: make([]float64, n*n*n), spec: make([]complex128, n*n*(n/2+1)), back: make([]float64, n*n*n)}
	for gy := 0; gy < n; gy++ {
		for gz := 0; gz < n; gz++ {
			for gx := 0; gx < n; gx++ {
				o.phys[(gy*n+gz)*n+gx] = pencilField(n, gx, gy, gz)
			}
		}
	}
	return o
}

func naiveOracle(n int) *oracle {
	nxh := n/2 + 1
	o := newOracle(n)
	w := make([]complex128, n) // e^{-2πi j/N}
	for j := range w {
		s, c := math.Sincos(-2 * math.Pi * float64(j) / float64(n))
		w[j] = complex(c, s)
	}
	for kz := 0; kz < n; kz++ {
		for ky := 0; ky < n; ky++ {
			for kx := 0; kx < nxh; kx++ {
				var sum complex128
				for y := 0; y < n; y++ {
					for z := 0; z < n; z++ {
						for x := 0; x < n; x++ {
							sum += complex(o.phys[(y*n+z)*n+x], 0) * w[(kx*x+ky*y+kz*z)%n]
						}
					}
				}
				o.spec[(kz*n+ky)*nxh+kx] = sum
			}
		}
	}
	o.invert()
	return o
}

// invert fills back with the naive inverse of spec over the full
// spectrum, the kx > N/2 half by conjugate symmetry û(−k) = conj û(k).
func (o *oracle) invert() {
	n, nxh := o.n, o.n/2+1
	w := make([]complex128, n) // e^{+2πi j/N}
	for j := range w {
		s, c := math.Sincos(2 * math.Pi * float64(j) / float64(n))
		w[j] = complex(c, s)
	}
	full := func(kx, ky, kz int) complex128 {
		if kx < nxh {
			return o.spec[(kz*n+ky)*nxh+kx]
		}
		return cmplx.Conj(o.spec[(((n-kz)%n)*n+(n-ky)%n)*nxh+n-kx])
	}
	for y := 0; y < n; y++ {
		for z := 0; z < n; z++ {
			for x := 0; x < n; x++ {
				var sum complex128
				for kz := 0; kz < n; kz++ {
					for ky := 0; ky < n; ky++ {
						for kx := 0; kx < n; kx++ {
							sum += full(kx, ky, kz) * w[(kx*x+ky*y+kz*z)%n]
						}
					}
				}
				o.back[(y*n+z)*n+x] = real(sum) / float64(n*n*n)
			}
		}
	}
}

// masked is the oracle of the transform band-limited to |k_i| ≤ kmax:
// the same field, its spectrum zeroed outside the band, and the inverse
// of that by invert ((*oracle).invert or (*oracle).invertSeparable).
func (o *oracle) masked(kmax int, invert func(*oracle)) *oracle {
	n, nxh := o.n, o.n/2+1
	m := &oracle{n: n, phys: o.phys, spec: make([]complex128, len(o.spec)), back: make([]float64, len(o.back))}
	out := func(i int) bool { return min(i, n-i) > kmax }
	for i, v := range o.spec {
		if !out(i%nxh) && !out(i/nxh%n) && !out(i/nxh/n) {
			m.spec[i] = v
		}
	}
	invert(m)
	return m
}

// checkAgainstOracle runs build's engine on p ranks and compares its
// forward spectrum and its inverse of the oracle's spectrum with the
// naive sums, to tol relative to the largest magnitude of each.
func checkAgainstOracle(t *testing.T, tag string, o *oracle, p int, tol float64, build func(c *mpi.Comm) *SlabReal) {
	t.Helper()
	n := o.n
	var specMax float64
	for _, v := range o.spec {
		specMax = math.Max(specMax, cmplx.Abs(v))
	}
	if err := mpi.TryRun(p, func(c *mpi.Comm) {
		f := build(c)
		defer f.Close()
		l := testLayout(f)
		phys := make([]float64, f.PhysicalLen())
		for iy := 0; iy < l.My; iy++ {
			for iz := 0; iz < l.Mz; iz++ {
				copy(phys[(iy*l.Mz+iz)*n:][:n], o.phys[((l.YRank*l.My+iy)*n+l.ZRank*l.Mz+iz)*n:])
			}
		}
		four := make([]complex128, f.FourierLen())
		f.PhysicalToFourier(four, phys)
		for iz := 0; iz < l.Mz2; iz++ {
			for gy := 0; gy < n; gy++ {
				for ix := 0; ix < l.Wc; ix++ {
					i := (iz*n+gy)*l.Wc + ix
					want := o.spec[((l.YRank*l.Mz2+iz)*n+gy)*l.Nxh+l.XLo+ix]
					if d := cmplx.Abs(four[i] - want); d > tol*specMax {
						panic(fmt.Sprintf("rank %d: forward k=(%d,%d,%d) = %v, oracle %v (|Δ| %.3g)",
							c.Rank(), l.XLo+ix, gy, l.YRank*l.Mz2+iz, four[i], want, d))
					}
					four[i] = want
				}
			}
		}
		f.FourierToPhysical(phys, four)
		for iy := 0; iy < l.My; iy++ {
			for iz := 0; iz < l.Mz; iz++ {
				for ix := 0; ix < n; ix++ {
					gy, gz := l.YRank*l.My+iy, l.ZRank*l.Mz+iz
					got, want := phys[(iy*l.Mz+iz)*n+ix], o.back[(gy*n+gz)*n+ix]
					if d := math.Abs(got - want); d > tol {
						panic(fmt.Sprintf("rank %d: inverse (%d,%d,%d) = %v, oracle %v (|Δ| %.3g)",
							c.Rank(), ix, gy, gz, got, want, d))
					}
				}
			}
		}
	}); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
}

// Both engines against the naive DFT, an oracle that shares no code
// with internal/fft, for every P ∈ {1, 2, 4, 8}, every concrete
// strategy and two team sizes: the pencil engine on every valid Pc > 1
// grid (1×P included), and the slab engine as the slab (np 1, one
// exchange per slab), as the batched pipeline (np 4, per-pencil
// exchanges — pencils past N/P included) and on two devices. The
// single-precision wire is checked against the same sums to 1e-5 of
// the largest magnitude: it narrows twice per transform, ~1e-7
// relative each.
func TestEngineMatchesNaiveDFT(t *testing.T) {
	slabs := []Options{
		{NP: 1, Granularity: PerSlab, NGPU: 1},
		{NP: 4, Granularity: PerPencil, NGPU: 1},
		{NP: 4, Granularity: PerPencil, NGPU: 2},
	}
	for _, n := range []int{8, 12} {
		o := naiveOracle(n)
		// The inverse oracle of the forward oracle is the field itself:
		// the naive sums are self-consistent before any engine runs.
		for i, v := range o.back {
			if math.Abs(v-o.phys[i]) > 1e-12 {
				t.Fatalf("N=%d: naive inverse∘forward differs from the field at %d: %v vs %v", n, i, v, o.phys[i])
			}
		}
		for _, p := range []int{1, 2, 4, 8} {
			slabs := slabs
			if n%p != 0 {
				slabs = nil // no slab of N/P planes
			}
			for _, st := range exchange.Concrete {
				for _, workers := range []int{1, 3} {
					for _, d := range grids(n, p) {
						if d.Pc == 1 {
							continue
						}
						tag := fmt.Sprintf("N=%d %s %s workers=%d", n, d, st, workers)
						checkAgainstOracle(t, tag, o, p, 1e-12, func(c *mpi.Comm) *SlabReal {
							row, col := c.CartGrid(d.Pr, d.Pc)
							return NewPencilReal(col, row, n, workers, exchange.Both(st))
						})
					}
					for _, opt := range slabs {
						opt.Workers, opt.Exchange = workers, st
						tag := fmt.Sprintf("N=%d P=%d slab %+v", n, p, opt)
						checkAgainstOracle(t, tag, o, p, 1e-12, func(c *mpi.Comm) *SlabReal { return NewAsyncSlabReal(c, n, opt) })
					}
				}
				for _, opt := range slabs {
					opt.Workers, opt.Exchange, opt.SingleComm = 2, st, true
					tag := fmt.Sprintf("N=%d P=%d slab %+v", n, p, opt)
					checkAgainstOracle(t, tag, o, p, 1e-5, func(c *mpi.Comm) *SlabReal { return NewAsyncSlabReal(c, n, opt) })
				}
			}
		}
		// One band-limited case per size, against the masked sums: the
		// 2/3 band on a grid with both exchanges.
		kmax := n / 3
		checkAgainstOracle(t, fmt.Sprintf("N=%d 2x2 truncated to %d", n, kmax), o.masked(kmax, (*oracle).invert), 4, 1e-12, func(c *mpi.Comm) *SlabReal {
			row, col := c.CartGrid(2, 2)
			f := NewPencilReal(col, row, n, 3, exchange.Both(exchange.ChunkedFused))
			f.Truncate(kmax)
			return f
		})
	}
}

// separableOracle is naiveOracle's field and sums at O(N⁴): the 3-D DFT
// factors into one O(N) sum per axis and output, x first (keeping
// kx ≤ N/2), then y, then z, and the inverse runs z, y, then x over the
// half-spectrum completed by conjugate symmetry. Like naiveOracle it
// shares no code with internal/fft, and it reaches the sizes whose
// programs the benchmark runs (an 8-point leaf and a radix-4 stage at
// N = 64).
func separableOracle(n int) *oracle {
	nxh := n/2 + 1
	o := newOracle(n)
	fw := make([]complex128, n) // e^{-2πi j/N}
	for j := range fw {
		s, c := math.Sincos(2 * math.Pi * float64(j) / float64(n))
		fw[j] = complex(c, -s)
	}
	// a[(y·N+z)·Nxh+kx] = Σ_x u·e^{-2πi kx·x/N}
	a := make([]complex128, n*n*nxh)
	for yz := 0; yz < n*n; yz++ {
		for kx := 0; kx < nxh; kx++ {
			var sum complex128
			for x := 0; x < n; x++ {
				sum += complex(o.phys[yz*n+x], 0) * fw[kx*x%n]
			}
			a[yz*nxh+kx] = sum
		}
	}
	// b[(ky·N+z)·Nxh+kx] = Σ_y a·e^{-2πi ky·y/N}
	b := make([]complex128, n*n*nxh)
	for ky := 0; ky < n; ky++ {
		for z := 0; z < n; z++ {
			for kx := 0; kx < nxh; kx++ {
				var sum complex128
				for y := 0; y < n; y++ {
					sum += a[(y*n+z)*nxh+kx] * fw[ky*y%n]
				}
				b[(ky*n+z)*nxh+kx] = sum
			}
		}
	}
	for kz := 0; kz < n; kz++ {
		for ky := 0; ky < n; ky++ {
			for kx := 0; kx < nxh; kx++ {
				var sum complex128
				for z := 0; z < n; z++ {
					sum += b[(ky*n+z)*nxh+kx] * fw[kz*z%n]
				}
				o.spec[(kz*n+ky)*nxh+kx] = sum
			}
		}
	}
	o.invertSeparable()
	return o
}

// invertSeparable fills back with the separable inverse of spec:
// a = Σ_kz spec·e^{+2πi kz·z/N} at (ky·N+z)·Nxh+kx, then
// b = Σ_ky a·e^{+2πi ky·y/N} at (y·N+z)·Nxh+kx, then the real sum over
// every kx, b(N−kx) = conj b(kx) past N/2, scaled by 1/N³.
func (o *oracle) invertSeparable() {
	n, nxh := o.n, o.n/2+1
	bw := make([]complex128, n) // e^{+2πi j/N}
	for j := range bw {
		s, c := math.Sincos(2 * math.Pi * float64(j) / float64(n))
		bw[j] = complex(c, s)
	}
	a, b := make([]complex128, n*n*nxh), make([]complex128, n*n*nxh)
	for ky := 0; ky < n; ky++ {
		for z := 0; z < n; z++ {
			for kx := 0; kx < nxh; kx++ {
				var sum complex128
				for kz := 0; kz < n; kz++ {
					sum += o.spec[(kz*n+ky)*nxh+kx] * bw[kz*z%n]
				}
				a[(ky*n+z)*nxh+kx] = sum
			}
		}
	}
	for y := 0; y < n; y++ {
		for z := 0; z < n; z++ {
			for kx := 0; kx < nxh; kx++ {
				var sum complex128
				for ky := 0; ky < n; ky++ {
					sum += a[(ky*n+z)*nxh+kx] * bw[ky*y%n]
				}
				b[(y*n+z)*nxh+kx] = sum
			}
		}
	}
	for yz := 0; yz < n*n; yz++ {
		for x := 0; x < n; x++ {
			var sum complex128
			for kx := 0; kx < n; kx++ {
				v := b[yz*nxh+min(kx, n-kx)]
				if kx >= nxh {
					v = cmplx.Conj(v)
				}
				sum += v * bw[kx*x%n]
			}
			o.back[yz*n+x] = real(sum) / float64(n*n*n)
		}
	}
}

// TestEngineMatchesSeparableDFT checks the programs the benchmark runs
// against the separable oracle: N = 32, 48 (mixed radix) and 64 at
// P = 2, as the slab at np 1 and on the 1×2 pencil grid, one strategy,
// one worker. At N = 48 and 64 both engines also run truncated to the
// solver's band |k_i| ≤ ⌊N/3⌋ against the masked sums: the real x
// pass's band-limited rows (kb < N/2 + 1, the pre-pass rows that read
// one operand) and, at N = 48, the odd-width rows (band 17 wide). At
// N = 8 it is the O(N⁶) oracle's spectrum and inverse.
func TestEngineMatchesSeparableDFT(t *testing.T) {
	const n8 = 8
	sep, naive := separableOracle(n8), naiveOracle(n8)
	for i, v := range naive.spec {
		if d := cmplx.Abs(sep.spec[i] - v); d > 1e-12 {
			t.Fatalf("N=%d: separable spectrum differs from the naive sums at %d: %v vs %v", n8, i, sep.spec[i], v)
		}
	}
	for i, v := range naive.back {
		if d := math.Abs(sep.back[i] - v); d > 1e-12 {
			t.Fatalf("N=%d: separable inverse differs from the naive sums at %d: %v vs %v", n8, i, sep.back[i], v)
		}
	}
	const p = 2
	for _, n := range []int{32, 48, 64} {
		o := separableOracle(n)
		for i, v := range o.back {
			if math.Abs(v-o.phys[i]) > 1e-12 {
				t.Fatalf("N=%d: separable inverse∘forward differs from the field at %d: %v vs %v", n, i, v, o.phys[i])
			}
		}
		opt := Options{NP: 1, Granularity: PerSlab, NGPU: 1, Workers: 1, Exchange: exchange.Fused}
		checkAgainstOracle(t, fmt.Sprintf("N=%d P=%d slab", n, p), o, p, 1e-12, func(c *mpi.Comm) *SlabReal {
			return NewAsyncSlabReal(c, n, opt)
		})
		checkAgainstOracle(t, fmt.Sprintf("N=%d 1x2", n), o, p, 1e-12, func(c *mpi.Comm) *SlabReal {
			row, col := c.CartGrid(1, 2)
			return NewPencilReal(col, row, n, 1, exchange.Both(exchange.Fused))
		})
		if n == 32 {
			continue
		}
		kmax := grid.DealiasKmax(n)
		m := o.masked(kmax, (*oracle).invertSeparable)
		checkAgainstOracle(t, fmt.Sprintf("N=%d P=%d slab truncated to %d", n, p, kmax), m, p, 1e-12, func(c *mpi.Comm) *SlabReal {
			f := NewAsyncSlabReal(c, n, opt)
			f.Truncate(kmax)
			return f
		})
		checkAgainstOracle(t, fmt.Sprintf("N=%d 1x2 truncated to %d", n, kmax), m, p, 1e-12, func(c *mpi.Comm) *SlabReal {
			row, col := c.CartGrid(1, 2)
			f := NewPencilReal(col, row, n, 1, exchange.Both(exchange.Fused))
			f.Truncate(kmax)
			return f
		})
	}
}
