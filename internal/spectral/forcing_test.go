package spectral

import (
	"math"
	"testing"

	"repro/internal/grid"
	"repro/internal/mpi"
)

// TestForcingFollowsRestoredKF restores a KF = 2 checkpoint into a
// solver built with KF = 3: the band energy and one forcing application
// must then act on shells 1…2 alone.
func TestForcingFollowsRestoredKF(t *testing.T) {
	dir := t.TempDir()
	const n = 16
	base := []Option{WithNu(0.02), WithScheme(RK2), WithDealias(Dealias23)}
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, n, append(base, WithForcing(2, 0.1), WithForcingNoise(0.5, 42))...)
		s.SetRandomIsotropic(3, 0.5, 11)
		if err := s.SaveCheckpoint(dir); err != nil {
			t.Errorf("save: %v", err)
		}
		r := New(c, n, append(base, WithForcing(3, 0.7), WithForcingNoise(0.1, 7))...)
		if err := r.LoadCheckpoint(dir); err != nil {
			t.Errorf("load: %v", err)
		}
		f := r.System().(*ForcedNS).Forcing()
		spec := r.Spectrum()
		want := spec[1] + spec[2]
		if got := f.BandEnergy(r); math.Abs(got-want) > 1e-14*want {
			t.Errorf("rank %d: band energy %.17g, shells 1…2 of the spectrum %.17g", c.Rank(), got, want)
		}

		var before [3][]complex128
		for i := range before {
			before[i] = append([]complex128(nil), r.Uh[i]...)
		}
		f.apply(r, 0.004)
		changed := 0
		sl := r.Slab()
		for iz := 0; iz < sl.MZ(); iz++ {
			kz := grid.Wavenumber(sl.ZLo()+iz, n)
			for iy := 0; iy < n; iy++ {
				ky := grid.Wavenumber(iy, n)
				for kx := 0; kx <= n/2; kx++ {
					idx := (iz*n+iy)*(n/2+1) + kx
					k := math.Sqrt(float64(kx*kx + ky*ky + kz*kz))
					forced := k >= 0.5 && k < 2.5
					for i := range before {
						same := bitsEqual(before[i][idx], r.Uh[i][idx])
						if !forced && !same {
							t.Errorf("rank %d: mode (%d,%d,%d) |k|=%.3f outside shells 1…2 changed", c.Rank(), kx, ky, kz, k)
						}
						if forced && !same {
							changed++
						}
					}
				}
			}
		}
		if changed == 0 {
			t.Errorf("rank %d: forcing changed no mode of shells 1…2", c.Rank())
		}
	})
}

func bitsEqual(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}
