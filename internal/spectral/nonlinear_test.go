package spectral

import (
	"math"
	"strings"
	"testing"

	"repro/internal/exchange"
	"repro/internal/mpi"
	"repro/internal/pfft"
)

// orderTransform records each transform call its solver issues: I for
// FourierToPhysical, F for PhysicalToFourier.
type orderTransform struct {
	Transform
	calls strings.Builder
}

func (t *orderTransform) FourierToPhysical(phys []float64, four []complex128) {
	t.calls.WriteByte('I')
	t.Transform.FourierToPhysical(phys, four)
}

func (t *orderTransform) PhysicalToFourier(four []complex128, phys []float64) {
	t.calls.WriteByte('F')
	t.Transform.PhysicalToFourier(four, phys)
}

// One evaluation of the right-hand side issues its transforms in the
// order that lets each product overwrite a velocity component: u_0,
// u_0u_0, u_1, u_0u_1, u_2, then the last four products. A scalar's
// inverse and three forwards run between the two phases, while the
// velocity is still in physical space. Three inverses and then six
// forwards would need a fourth physical field.
func TestNonlinearTransformOrder(t *testing.T) {
	const n = 16
	velocity := "IFIFI"
	for _, tc := range []struct {
		name    string
		scalars []ScalarSpec
		want    string
	}{
		{"ns", nil, velocity + "FFFF"},
		{"rotating-scalar", []ScalarSpec{{Schmidt: 1, MeanGrad: 1}, {Schmidt: 0.7}}, velocity + "IFFF" + "IFFF" + "FFFF"},
	} {
		spec := SystemSpec{Nu: 0.01, Scalars: tc.scalars, Omega: 2}
		mpi.Run(2, func(c *mpi.Comm) {
			sys, err := NewNamedSystem(tc.name, spec)
			if err != nil {
				panic(err)
			}
			eng := pfft.NewSlabRealStrategy(c, n, 1, exchange.Auto)
			defer eng.Close()
			tr := &orderTransform{Transform: eng}
			s := New(c, n, WithNu(spec.Nu), WithDealias(Dealias23Shift), WithSystemInstance(sys), WithTransform(tr))
			defer s.Close()
			s.SetRandomIsotropic(2.5, 0.3, 17)
			tr.calls.Reset()
			s.sys.Nonlinear(s, s.state, s.nl)
			if got := tr.calls.String(); got != tc.want && c.Rank() == 0 {
				t.Errorf("%s: one right-hand side transforms %s, want %s", tc.name, got, tc.want)
			}
		})
	}
}

// divSpecials are values a projected mode's parts or its k² may take or
// that the division must carry as the runtime does: signed zeros,
// infinities, NaN, subnormals, values whose products overflow, and
// small integers.
var divSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308, -1.5e-310,
	math.MaxFloat64, -math.MaxFloat64, 8.98846567431158e307, -1.3e308, 1, -1, 0.5,
}

// divReal is the runtime's n / complex(k2, 0), bit for bit (NaN
// matching NaN), for every pair of parts from divSpecials and every
// positive k² among them and the wavenumber sums the solver divides by.
func TestDivRealMatchesComplexDivision(t *testing.T) {
	same := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
	}
	k2s := []float64{2, 3, 1 << 20, 1e-300, 1e300}
	for _, v := range divSpecials {
		if v > 0 {
			k2s = append(k2s, v)
		}
	}
	for _, re := range divSpecials {
		for _, im := range divSpecials {
			for _, k2 := range k2s {
				n := complex(re, im)
				got, want := divReal(n, k2), n/complex(k2, 0)
				if !same(real(got), real(want)) || !same(imag(got), imag(want)) {
					t.Fatalf("divReal(%v, %v) = %v, the complex division gives %v", n, k2, got, want)
				}
			}
		}
	}
}
