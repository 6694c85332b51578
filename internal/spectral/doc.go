// Package spectral implements the Fourier pseudo-spectral direct
// numerical simulation of forced/decaying isotropic turbulence that the
// paper's GPU algorithm accelerates: the incompressible Navier–Stokes
// equations on a 2π-periodic cube, advanced in Fourier space with
// explicit RK2 or RK4 for the nonlinear term and an exact integrating
// factor for the viscous term (Eq 2 of the paper), with mass
// conservation enforced by projecting the nonlinear term perpendicular
// to the wavenumber vector.
//
// Nonlinear terms are evaluated pseudo-spectrally: the three velocity
// components are transformed to physical space (y, z, x order), the six
// distinct products u_iu_j are formed there on unit-stride real data,
// transformed back, and differentiated spectrally, giving the
// divergence form ∇·(uu). Each product is formed as soon as its factors
// are there, over a component it no longer needs, so the velocity and
// its products share three physical fields. Aliasing errors are
// controlled by 2/3-rule truncation optionally combined with phase
// shifting (Rogallo 1981).
//
// Fourier coefficients are stored in "code units": û_code = N³·û_math,
// the natural convention when the forward transform is unnormalized and
// the inverse carries the 1/N³ factor. All diagnostics account for it.
package spectral
