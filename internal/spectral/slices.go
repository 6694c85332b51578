package spectral

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"

	"repro/internal/mpi"
)

// Slice extraction: production DNS campaigns dump 2D planes of the
// solution for visualization and for surface statistics; at 18432²
// points per plane this is the only routinely affordable full-
// resolution output.

// SliceZ gathers the physical-space plane z = iz of velocity component
// comp to rank 0, returned as a row-major [ny][nx] array (nil on other
// ranks). Collective: costs one inverse transform plus a gather.
func (s *Solver) SliceZ(comp, iz int) []float64 {
	n := s.cfg.N
	if comp < 0 || comp > 2 || iz < 0 || iz >= n {
		panic(fmt.Sprintf("spectral: invalid slice (comp=%d, iz=%d)", comp, iz))
	}
	copy(s.work, s.Uh[comp])
	s.tr.FourierToPhysical(s.physU[comp], s.work)
	// Physical layout is [my][nz][nx], y-distributed: every rank owns a
	// y-strip of the plane.
	my := s.slab.MY()
	strip := make([]float64, my*n)
	for iy := 0; iy < my; iy++ {
		copy(strip[iy*n:(iy+1)*n], s.physU[comp][(iy*n+iz)*n:(iy*n+iz)*n+n])
	}
	var plane []float64
	if s.slab.Rank == 0 {
		plane = make([]float64, n*n)
	}
	mpi.Gather(s.comm, 0, strip, plane)
	return plane
}

// WriteSlicePNG renders a row-major [ny][nx] plane as a PNG with a
// symmetric blue–white–red colormap centred on zero, the conventional
// rendering for velocity slices.
func WriteSlicePNG(w io.Writer, plane []float64, nx, ny int) error {
	if len(plane) != nx*ny {
		return fmt.Errorf("spectral: plane has %d values, want %d", len(plane), nx*ny)
	}
	var vmax float64
	for _, v := range plane {
		if a := math.Abs(v); a > vmax {
			vmax = a
		}
	}
	if vmax == 0 {
		vmax = 1
	}
	img := image.NewRGBA(image.Rect(0, 0, nx, ny))
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			t := plane[j*nx+i] / vmax // −1…1
			img.Set(i, j, diverging(t))
		}
	}
	return png.Encode(w, img)
}

// diverging maps t ∈ [−1,1] to blue–white–red.
func diverging(t float64) color.RGBA {
	t = math.Max(-1, math.Min(1, t))
	if t < 0 {
		u := 1 + t // 0…1
		return color.RGBA{uint8(255 * u), uint8(255 * u), 255, 255}
	}
	u := 1 - t
	return color.RGBA{255, uint8(255 * u), uint8(255 * u), 255}
}
