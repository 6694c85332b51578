package spectral

import (
	"bytes"
	"image/png"
	"math"
	"testing"

	"repro/internal/mpi"
)

func TestSliceZMatchesAnalyticTG(t *testing.T) {
	n, p := 16, 4
	mpi.Run(p, func(c *mpi.Comm) {
		s := New(c, n, WithNu(0))
		defer s.Close()
		s.SetTaylorGreen()
		iz := 3
		plane := s.SliceZ(0, iz) // u component
		if c.Rank() != 0 {
			if plane != nil {
				t.Error("non-root got a plane")
			}
			return
		}
		h := 2 * math.Pi / float64(n)
		z := float64(iz) * h
		for gy := 0; gy < n; gy++ {
			for ix := 0; ix < n; ix++ {
				want := math.Sin(float64(ix)*h) * math.Cos(float64(gy)*h) * math.Cos(z)
				if math.Abs(plane[gy*n+ix]-want) > 1e-12 {
					t.Fatalf("slice(%d,%d): %g want %g", gy, ix, plane[gy*n+ix], want)
				}
			}
		}
	})
}

func TestWriteSlicePNG(t *testing.T) {
	n := 8
	plane := make([]float64, n*n)
	for i := range plane {
		plane[i] = math.Sin(float64(i))
	}
	var buf bytes.Buffer
	if err := WriteSlicePNG(&buf, plane, n, n); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if img.Bounds().Dx() != n || img.Bounds().Dy() != n {
		t.Errorf("image %v", img.Bounds())
	}
}

func TestWriteSlicePNGBadDims(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSlicePNG(&buf, make([]float64, 10), 4, 4); err == nil {
		t.Error("expected dimension error")
	}
}

func TestWriteSlicePNGConstantField(t *testing.T) {
	// vmax = 0 must not divide by zero.
	var buf bytes.Buffer
	if err := WriteSlicePNG(&buf, make([]float64, 16), 4, 4); err != nil {
		t.Fatal(err)
	}
}
