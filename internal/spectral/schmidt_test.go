package spectral

import (
	"math"
	"strings"
	"testing"

	"repro/internal/mpi"
)

// A negative or NaN Schmidt number used to run κ = ν without a word;
// it is now rejected at construction with the scalar named. Sc = 0
// keeps meaning the default Sc = 1 and Sc = +Inf a κ = 0 scalar.
func TestSchmidtValidation(t *testing.T) {
	for _, sc := range []float64{-0.7, math.NaN()} {
		spec := SystemSpec{Nu: 0.01, Scalars: []ScalarSpec{{Schmidt: 1}, {Schmidt: sc}}}
		if _, err := NewNamedSystem("rotating-scalar", spec); err == nil || !strings.Contains(err.Error(), "scalar 1") {
			t.Errorf("Sc=%g: NewNamedSystem error %v, want one naming scalar 1", sc, err)
		}
		err := mpi.TryRun(1, func(c *mpi.Comm) { New(c, 8, WithNu(0.01), WithScalars(2, 1, sc)) })
		if err == nil || !strings.Contains(err.Error(), "scalar 1") {
			t.Errorf("Sc=%g: New error %v, want a rank error naming scalar 1", sc, err)
		}
	}
	sys, err := NewNamedSystem("rotating-scalar", SystemSpec{Nu: 0.02, Scalars: []ScalarSpec{{}, {Schmidt: 0.5}, {Schmidt: math.Inf(1)}}})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0.02, 0.04, 0} {
		if got := sys.Diffusivity(3 + i); got != want {
			t.Errorf("scalar %d: κ = %g, want %g", i, got, want)
		}
	}
}
