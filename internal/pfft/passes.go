package pfft

import (
	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/transpose"
)

// Passes are the per-plane FFT bodies of the transforms, as functions
// of a plane range, so that both engines run one implementation of
// each pass and one band setter: SlabReal runs them over one plane
// group per pipeline cell, Engine its y and z passes over its whole
// pencil. A plane is [N][Stride] complex — a z-plane of C, or a
// y-plane of B (= X on one column) — or [N][N] real, a y-plane of
// physical space. Planes are independent and every worker runs an
// identical plan, so the output is bitwise invariant under how a range
// is split and across which workers.
type Passes struct {
	N, Stride int
	// The band: KB of each row's Stride columns hold an in-band kx,
	// ZIn marks the z-planes of C whose kz is in band, and [GapLo,
	// GapHi) are the rows (ky of C, kz of B) that are not.
	KB, GapLo, GapHi int
	ZIn              []bool
	// Per-worker plans (plans carry scratch and are not
	// concurrency-safe): Y runs the KB in-band columns of a complex
	// plane at stride Stride — the y lines of C, the z lines of B — and
	// X a y-plane's N rows between the in-band bins and N real x lines.
	Y []*fft.Batch
	X []*fft.RealBatch
}

// newPasses returns the passes over planes of stride columns, for
// planes z-planes of C and a team of workers; SetBand builds their
// plans.
func newPasses(n, stride, planes, workers int) Passes {
	return Passes{N: n, Stride: stride, ZIn: make([]bool, planes),
		Y: make([]*fft.Batch, workers), X: make([]*fft.RealBatch, workers)}
}

// SetBand points the passes at band and rebuilds every worker's plans
// for it, releasing the previous band's: xlo is the kx of the first of
// a row's Stride columns, zlo the kz of C's first z-plane, rows the x
// lines of a y-plane. The Y plans run the KB in-band columns at stride
// Stride; the X plans stop at the band's last bin of the whole
// half-spectrum. Plan time, not hot path.
func (p *Passes) SetBand(band grid.Band, xlo, zlo, rows int) {
	nxh := p.N/2 + 1
	p.KB = band.Width(xlo, xlo+p.Stride)
	p.GapLo, p.GapHi = band.Gap()
	for iz := range p.ZIn {
		p.ZIn[iz] = band.Has(zlo + iz)
	}
	p.release()
	for w := range p.Y {
		p.Y[w] = fft.NewBatch(p.N, p.KB, p.Stride, 1, p.Stride, 1)
		p.X[w] = fft.NewBandRealBatch(p.N, band.Width(0, nxh), rows, 1, p.N, 1, nxh)
	}
}

// release returns every worker's plans to the arena.
func (p *Passes) release() {
	for w := range p.Y {
		if p.Y[w] != nil {
			p.Y[w].Release()
			p.X[w].Release()
			p.Y[w], p.X[w] = nil, nil
		}
	}
}

// InvY runs the inverse y lines of C's z-planes [lo, hi) in place on
// worker w. It reads only what its lines and the exchange behind it
// read: the KB columns of the in-band planes, with +0 stored over
// their gap rows first, since the lines take them as input (the
// receiving side of the exchange stores the zeros of the out-of-band
// planes).
//
//psdns:hotpath
func (p *Passes) InvY(w int, four []complex128, lo, hi int) {
	cp := p.N * p.Stride
	for iz := lo; iz < hi; iz++ {
		if !p.ZIn[iz] {
			continue
		}
		plane := four[iz*cp : (iz+1)*cp]
		transpose.ZeroOutOfBand(plane, p.N, p.Stride, p.KB, p.KB, p.GapLo, p.GapHi)
		p.Y[w].Inverse(plane, plane)
	}
}

// FwdY runs the forward y lines of C's z-planes [lo, hi) in place on
// worker w and stores the band's zeros over everything else of each
// plane: the exchange in front of it filled the KB columns of the
// in-band planes and nothing more.
//
//psdns:hotpath
func (p *Passes) FwdY(w int, four []complex128, lo, hi int) {
	cp := p.N * p.Stride
	for iz := lo; iz < hi; iz++ {
		plane := four[iz*cp : (iz+1)*cp]
		if !p.ZIn[iz] {
			clear(plane)
			continue
		}
		p.Y[w].Forward(plane, plane)
		transpose.ZeroOutOfBand(plane, p.N, p.Stride, p.Stride, p.KB, p.GapLo, p.GapHi)
	}
}

// InvZX runs y-planes [lo, hi) of B through the inverse z lines and the
// complex-to-real x lines back to back, while each plane is in cache,
// into the physical slab phys on worker w.
//
//psdns:hotpath
func (p *Passes) InvZX(w int, phys []float64, mid []complex128, lo, hi int) {
	bp, pp := p.N*p.Stride, p.N*p.N
	for iy := lo; iy < hi; iy++ {
		plane := mid[iy*bp : (iy+1)*bp]
		p.Y[w].Inverse(plane, plane)
		p.X[w].Inverse(phys[iy*pp:(iy+1)*pp], plane)
	}
}

// FwdXZ runs y-planes [lo, hi) of the physical slab through the
// real-to-complex x lines and the forward z lines back to back into B
// on worker w.
//
//psdns:hotpath
func (p *Passes) FwdXZ(w int, mid []complex128, phys []float64, lo, hi int) {
	bp, pp := p.N*p.Stride, p.N*p.N
	for iy := lo; iy < hi; iy++ {
		plane := mid[iy*bp : (iy+1)*bp]
		p.X[w].Forward(plane, phys[iy*pp:(iy+1)*pp])
		p.Y[w].Forward(plane, plane)
	}
}

// NarrowC converts C's z-planes [lo, hi) to the single-precision wire's
// copy dst, what the band's exchange moves of them: the KB columns of
// every row of the in-band planes. With WidenC, NarrowB and WidenB it
// is the f32 bracket of the one-column engine's exchanges.
//
//psdns:hotpath
func (p *Passes) NarrowC(dst []complex64, four []complex128, lo, hi int) {
	cp := p.N * p.Stride
	for iz := lo; iz < hi; iz++ {
		if p.ZIn[iz] {
			transpose.NarrowStrided(dst[iz*cp:], p.Stride, four[iz*cp:], p.Stride, p.KB, p.N)
		}
	}
}

// WidenC converts the KB columns of C's in-band z-planes [lo, hi) back
// from the wire's copy src, where the ZY exchange landed them.
//
//psdns:hotpath
func (p *Passes) WidenC(four []complex128, src []complex64, lo, hi int) {
	cp := p.N * p.Stride
	for iz := lo; iz < hi; iz++ {
		if p.ZIn[iz] {
			transpose.WidenStrided(four[iz*cp:], p.Stride, src[iz*cp:], p.Stride, p.KB, p.N)
		}
	}
}

// NarrowB converts B's y-planes [lo, hi) to the wire's copy dst, the
// KB columns of their in-band kz rows.
//
//psdns:hotpath
func (p *Passes) NarrowB(dst []complex64, mid []complex128, lo, hi int) {
	bp := p.N * p.Stride
	for iy := lo; iy < hi; iy++ {
		at, past := iy*bp, iy*bp+p.GapHi*p.Stride
		transpose.NarrowStrided(dst[at:], p.Stride, mid[at:], p.Stride, p.KB, p.GapLo)
		transpose.NarrowStrided(dst[past:], p.Stride, mid[past:], p.Stride, p.KB, p.N-p.GapHi)
	}
}

// WidenB converts the KB columns of every kz row of B's y-planes
// [lo, hi) back from the wire's copy src: the YZ exchange stored the
// zeros of the out-of-band rows there, which the z lines read.
//
//psdns:hotpath
func (p *Passes) WidenB(mid []complex128, src []complex64, lo, hi int) {
	bp := p.N * p.Stride
	transpose.WidenStrided(mid[lo*bp:], p.Stride, src[lo*bp:], p.Stride, p.KB, (hi-lo)*p.N)
}
