package spectral

import (
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
