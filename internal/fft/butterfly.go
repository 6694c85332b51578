package fft

// Butterfly bodies: the arithmetic of one radix-r decimation-in-time
// butterfly on r already-twiddled inputs, as straight-line functions
// small enough for the compiler to inline into the stage loops
// (stage.go). Line form and plane form call the same bodies, so a
// transform evaluates the same expression tree per output element
// whichever form runs it — the reason slab, pencil and async engines
// stay bitwise identical although they reach the kernels through
// different batch layouts.

// bf4 is the radix-4 butterfly; W_4 = −i forward, +i inverse, applied
// as an exact component swap instead of a complex multiply.
func bf4(a, b, c, d complex128, fwd bool) (x0, x1, x2, x3 complex128) {
	apc := a + c
	amc := a - c
	bpd := b + d
	bmd := b - d
	var jb complex128
	if fwd {
		jb = complex(imag(bmd), -real(bmd)) // −i·(b−d)
	} else {
		jb = complex(-imag(bmd), real(bmd)) // +i·(b−d)
	}
	return apc + bpd, amc + jb, apc - bpd, amc - jb
}

// sin3 is √3/2, the magnitude of the imaginary part of W_3.
const sin3 = 0.86602540378443864676

// bf3 is the radix-3 butterfly; im is +√3/2 forward, −√3/2 inverse
// (W_3 = −1/2 − i·√3/2, conjugated for the inverse).
func bf3(a, b, c complex128, im float64) (x0, x1, x2 complex128) {
	sum := b + c
	diff := b - c
	re := a - complex(0.5, 0)*sum
	rot := complex(0, -im) * diff
	return a + sum, re + rot, re - rot
}

// Real and imaginary parts of W_5 and W_5².
const (
	cos5a = 0.30901699437494742410 // cos(2π/5)
	sin5a = 0.95105651629515357212 // sin(2π/5)
	cos5b = -0.80901699437494742410
	sin5b = 0.58778525229247312917
)

// bf5half returns outputs k and 5−k of the radix-5 butterfly from the
// pair sums and differences: c, s multiply the (1,4) pair and c2, s2
// the (2,3) pair; sgn is +1 forward, −1 inverse.
func bf5half(a, s14, d14, s23, d23 complex128, c, s, c2, s2, sgn float64) (xk, x5k complex128) {
	re := a + complex(c, 0)*s14 + complex(c2, 0)*s23
	return re + (complex(0, -sgn*s)*d14 + complex(0, -sgn*s2)*d23),
		re + (complex(0, sgn*s)*d14 + complex(0, sgn*s2)*d23)
}

// sqrt1_2 is √2/2, the real (and negated imaginary) part of W_8.
const sqrt1_2 = 0.70710678118654752440

// tw8 multiplies the odd half of a length-8 transform by the exact
// eighth roots W_8^k = exp(∓2πik/8), k = 1, 2, 3; sgn is +1 forward,
// −1 inverse.
func tw8(o1, o2, o3 complex128, sgn float64) (t1, t2, t3 complex128) {
	t1 = complex(sqrt1_2, 0) * complex(real(o1)+sgn*imag(o1), imag(o1)-sgn*real(o1))
	t2 = complex(sgn*imag(o2), -sgn*real(o2))
	t3 = complex(sqrt1_2, 0) * complex(sgn*imag(o3)-real(o3), -sgn*real(o3)-imag(o3))
	return
}

// butterfly5 is one complete radix-5 butterfly: inputs in[q·istep]
// times tw[q−1], outputs to out[k2·ostep].
func butterfly5(out []complex128, ostep int, in []complex128, istep int, tw []complex128, sgn float64, sc complex128, scaled bool) {
	a := in[0]
	t1, t2, t3, t4 := in[istep]*tw[0], in[2*istep]*tw[1], in[3*istep]*tw[2], in[4*istep]*tw[3]
	s14, d14, s23, d23 := t1+t4, t1-t4, t2+t3, t2-t3
	x0 := a + s14 + s23
	x1, x4 := bf5half(a, s14, d14, s23, d23, cos5a, sin5a, cos5b, sin5b, sgn)
	x2, x3 := bf5half(a, s14, d14, s23, d23, cos5b, sin5b, cos5a, -sin5a, sgn)
	if scaled {
		x0, x1, x2, x3, x4 = x0*sc, x1*sc, x2*sc, x3*sc, x4*sc
	}
	out[0], out[ostep], out[2*ostep], out[3*ostep], out[4*ostep] = x0, x1, x2, x3, x4
}

// butterflyN is one complete butterfly of any small prime radix
// r = len(g), O(r²): g gathers the twiddled inputs in[q·istep]·tw[q],
// wr[k2·r+q] = W_r^{q·k2}.
func butterflyN(out []complex128, ostep int, in []complex128, istep int, tw, wr, g []complex128, sc complex128, scaled bool) {
	r := len(g)
	for q := range g {
		g[q] = in[q*istep] * tw[q]
	}
	for k2 := 0; k2 < r; k2++ {
		acc := g[0]
		for q := 1; q < r; q++ {
			acc += g[q] * wr[k2*r+q]
		}
		if scaled {
			acc *= sc
		}
		out[k2*ostep] = acc
	}
}
