package spectral

// RotatingScalarNS is incompressible Navier–Stokes in a frame rotating
// about ẑ at rate Ω, carrying any number of passive scalars with
// per-scalar Schmidt numbers and optional imposed mean gradients:
//
//	∂u/∂t + u·∇u = −∇p − 2Ω·ẑ×u + ν∇²u
//	∂θ_i/∂t + u·∇θ_i = κ_i∇²θ_i − G_i·u_y,   κ_i = ν/Sc_i
//
// The Coriolis term does no work (it enters before the solenoidal
// projection and is perpendicular to u), so inviscid energy is
// conserved to scheme accuracy; its signature is the growth of
// component anisotropy, reported by the anisotropy.bzz diagnostic.
//
// Scalars ride the velocity transforms nearly free: the velocity's
// physical-space fields are computed once per stage by
// velocityPhysical and reused for every scalar's advective flux before
// velocityFlux writes the last products over them, so each scalar adds
// only 1 inverse + 3 forward transforms — the companion-workload
// accounting of the paper's §3.3 — and two physical fields, the scalar
// and its product.
type RotatingScalarNS struct {
	nu      float64
	omega   float64
	scalars []scalarField

	physTh []float64 // one scalar in physical space (scratch)
	prod   []float64 // one scalar product u_c·θ at a time (scratch)
}

// scalarField is the resolved per-scalar configuration.
type scalarField struct {
	kappa    float64
	meanGrad float64
}

func init() {
	RegisterSystem("rotating-scalar", newRotatingScalarNS)
}

func newRotatingScalarNS(spec SystemSpec) System {
	y := &RotatingScalarNS{nu: spec.Nu, omega: spec.Omega}
	for _, sp := range spec.Scalars {
		kappa := spec.Nu // Sc = 0: the default Sc = 1 (Validate has rejected Sc < 0 and NaN)
		if sp.Schmidt > 0 {
			kappa = spec.Nu / sp.Schmidt
		}
		y.scalars = append(y.scalars, scalarField{kappa: kappa, meanGrad: sp.MeanGrad})
	}
	return y
}

// Name implements System.
func (y *RotatingScalarNS) Name() string { return "rotating-scalar" }

// Fields implements System: velocity plus one field per scalar.
func (y *RotatingScalarNS) Fields() int { return 3 + len(y.scalars) }

// Setup implements System: binds the scalars' physical-space scratch.
func (y *RotatingScalarNS) Setup(s *Solver) {
	if len(y.scalars) > 0 {
		y.physTh = make([]float64, s.tr.PhysicalLen())
		y.prod = make([]float64, s.tr.PhysicalLen())
	}
}

// Diffusivity implements System: ν for the velocity, κ_i = ν/Sc_i for
// scalar i.
func (y *RotatingScalarNS) Diffusivity(c int) float64 {
	if c < 3 {
		return y.nu
	}
	return y.scalars[c-3].kappa
}

// Nonlinear implements System: the velocity in physical space, each
// scalar's advection over it, the velocity's remaining products, then
// Coriolis (before projection) and the projection. The scalars touch
// only their own right-hand sides, so running them between the two
// velocity phases changes no bit of any field.
//
//psdns:hotpath
func (y *RotatingScalarNS) Nonlinear(s *Solver, state, rhs [][]complex128) {
	s.velocityPhysical(state, rhs)
	for i := range y.scalars {
		y.scalarAdvection(s, state, rhs, 3+i)
	}
	s.velocityFlux(rhs)
	if y.omega != 0 {
		s.addCoriolis(state, rhs, y.omega)
	}
	s.projectAndDealias(rhs)
}

// scalarAdvection evaluates −ik·FFT{u·θ} − G·û_y (dealiased) for field
// c into the band field rhs[c]. It must run after velocityPhysical and
// before velocityFlux: it reads the velocity velocityPhysical leaves in
// s.physU (with its phase shift, so scalar products are dealiased on
// the same shifted grid as the velocity's), and forms each product in
// y.prod.
//
//psdns:hotpath
func (y *RotatingScalarNS) scalarAdvection(s *Solver, state, rhs [][]complex128, c int) {
	s.toPhysical(y.physTh, state[c])
	for comp := 0; comp < 3; comp++ {
		mulTo(y.prod, s.physU[comp], y.physTh)
		s.forward(y.prod)
		s.accumulateFlux(rhs[c], comp, nil, 0)
	}

	// The mean-gradient production −G·û_y, if any, on the band.
	r, uy := rhs[c], state[1]
	if g := y.scalars[c-3].meanGrad; g != 0 {
		gc, kb := complex(g, 0), s.kb
		for _, row := range s.rows {
			d, u := r[row.boff:row.boff+kb], uy[row.off:row.off+kb]
			for i := range u {
				d[i] -= gc * u[i]
			}
		}
	}
}

// PostStep implements System.
//
//psdns:hotpath
func (y *RotatingScalarNS) PostStep(*Solver, float64) {}

// Diagnostics implements System: the energy budget, the rotation
// anisotropy measure b_zz = E_zz/E − 1/3 (zero for isotropy, negative
// as rotation drains the axial component), and each scalar's variance.
func (y *RotatingScalarNS) Diagnostics(s *Solver) []Diagnostic {
	e := s.Energy()
	d := []Diagnostic{
		{Name: "energy", Value: e},
		{Name: "dissipation", Value: s.Dissipation()},
		{Name: "rotation.rate", Value: y.omega},
	}
	if e > 0 {
		d = append(d, Diagnostic{Name: "anisotropy.bzz", Value: s.ComponentEnergy(2)/e - 1.0/3.0})
	}
	for i := range y.scalars {
		d = append(d, Diagnostic{Name: "scalar.variance", Value: s.FieldVariance(3 + i)})
	}
	return d
}
