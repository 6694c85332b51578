package fft

import "fmt"

// Plan3D transforms contiguous row-major n2×n1×n0 complex arrays along
// all three axes; the reference implementation the distributed slab and
// pencil FFTs are tested against.
type Plan3D struct {
	n0, n1, n2    int
	ax0, ax1, ax2 *Batch
}

// NewPlan3D creates a 3D plan for arrays indexed a[(i2*n1+i1)*n0+i0].
func NewPlan3D(n0, n1, n2 int) *Plan3D {
	return &Plan3D{
		n0: n0, n1: n1, n2: n2,
		ax0: NewBatch(n0, n1*n2, 1, n0, 1, n0),
		ax1: NewBatch(n1, n0, n0, 1, n0, 1),
		ax2: NewBatch(n2, n0*n1, n0*n1, 1, n0*n1, 1),
	}
}

// Forward computes the 3D forward DFT of src into dst (may alias).
func (p *Plan3D) Forward(dst, src []complex128) {
	p.check(dst, src)
	p.ax0.Forward(dst, src)
	for i2 := 0; i2 < p.n2; i2++ {
		plane := dst[i2*p.n0*p.n1 : (i2+1)*p.n0*p.n1]
		p.ax1.Forward(plane, plane)
	}
	p.ax2.Forward(dst, dst)
}

// Inverse computes the 3D inverse DFT (scaled by 1/(n0·n1·n2)).
func (p *Plan3D) Inverse(dst, src []complex128) {
	p.check(dst, src)
	p.ax0.Inverse(dst, src)
	for i2 := 0; i2 < p.n2; i2++ {
		plane := dst[i2*p.n0*p.n1 : (i2+1)*p.n0*p.n1]
		p.ax1.Inverse(plane, plane)
	}
	p.ax2.Inverse(dst, dst)
}

func (p *Plan3D) check(dst, src []complex128) {
	n := p.n0 * p.n1 * p.n2
	if len(dst) != n || len(src) != n {
		panic(fmt.Sprintf("fft: 3D plan %dx%dx%d, got dst %d src %d", p.n0, p.n1, p.n2, len(dst), len(src)))
	}
}
