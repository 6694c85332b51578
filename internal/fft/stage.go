package fft

// run executes the program on w adjacent lines: sample j of line t is
// src[j·is + t], output k of line t goes to dst[k·os + t], and work
// holds n rows of w. w = 1 is the line form. dst may alias src: every
// input is consumed by the leaf pass before the last stage stores.
//
//psdns:hotpath
func (pr *program) run(dst []complex128, os int, src []complex128, is int, work, gen []complex128, w int, dir Direction) {
	n, fwd, sgn := pr.n, dir == Forward, float64(-dir)
	// The inverse's last pass multiplies by 1/n; a length-1 transform
	// is a copy in both directions.
	sc, scaled := complex(1/float64(n), 0), !fwd && n > 1
	s := n / pr.leaf * is // spacing of a leaf's samples in src
	if !pr.fused() {
		for b, off := range pr.inOff {
			out, in := work[b*pr.leaf*w:], src[off*is:]
			switch {
			case pr.leaf == 1:
				copy(out[:w], in[:w])
			case pr.leaf == 2 && w == 1:
				dft2(out, in, s)
			case pr.leaf == 2:
				rows2leaf(out, in, s, w)
			case pr.leaf == 4 && w == 1:
				dft4(out, in, s, dir)
			case pr.leaf == 4:
				rows4leaf(out, in, s, w, fwd)
			case w == 1:
				dft8(out, in, s, dir)
			default:
				rows8leaf(out, in, s, w, fwd, sgn)
			}
		}
	}
	last := len(pr.stages) - 1
	if last < 0 {
		// Leaf-only lengths: n ≤ 8, a copy with the scale applied.
		for k := 0; k < n; k++ {
			o, x := dst[k*os:][:w], work[k*w:][:w]
			for t := range o {
				if scaled {
					o[t] = x[t] * sc
				} else {
					o[t] = x[t]
				}
			}
		}
		return
	}
	d := dir.index()
	for i := range pr.stages {
		st := &pr.stages[i]
		r, m, tw := st.r, st.m, st.tw[d]
		for b, blk := 0, 0; b < n; b, blk = b+r*m, blk+1 {
			// Element q·m + k1 of the block is in[q·istep + k1·w] and goes
			// to out[q·ostep + k1·orow].
			in, istep := work[b*w:], m*w
			out, ostep, orow, scale := in, istep, w, false
			if m == 1 {
				in, istep = src[pr.inOff[blk]*is:], s
			}
			if i == last {
				out, ostep, orow, scale = dst, m*os, os, scaled
			}
			switch {
			case r == 2 && w == 1:
				line2(out, ostep, orow, in, istep, m, tw, sc, scale)
			case r == 2:
				rows2(out, ostep, orow, in, istep, m, w, tw, sc, scale)
			case r == 3 && w == 1:
				line3(out, ostep, orow, in, istep, m, tw, sgn*sin3, sc, scale)
			case r == 3:
				rows3(out, ostep, orow, in, istep, m, w, tw, sgn*sin3, sc, scale)
			case r == 4 && w == 1:
				line4(out, ostep, orow, in, istep, m, tw, fwd, sc, scale)
			case r == 4:
				rows4(out, ostep, orow, in, istep, m, w, tw, fwd, sc, scale)
			default:
				// The cold radices: one butterfly function called per
				// element serves both forms.
				for k1 := 0; k1 < m; k1++ {
					ib, ob := in[k1*w:], out[k1*orow:]
					for t := 0; t < w; t++ {
						if r == 5 {
							butterfly5(ob[t:], ostep, ib[t:], istep, tw[4*k1:], sgn, sc, scale)
						} else {
							butterflyN(ob[t:], ostep, ib[t:], istep, tw[r*k1:], st.wr[d], gen[:r], sc, scale)
						}
					}
				}
			}
		}
	}
}

func line2(out []complex128, ostep, orow int, in []complex128, istep, m int, tw []complex128, sc complex128, scaled bool) {
	for k1 := 0; k1 < m; k1++ {
		o := k1 * orow
		a, b := in[k1], in[istep+k1]*tw[k1]
		x0, x1 := a+b, a-b
		if scaled {
			x0, x1 = x0*sc, x1*sc
		}
		out[o], out[o+ostep] = x0, x1
	}
}

// rows2Go, rows3Go and rows4Go are the plane-form stage bodies: for
// each k1 < m, the w columns of the row group whose inputs are
// in[q·istep + k1·w + t] and whose outputs go to out[q·ostep + k1·orow
// + t]. rows2, rows3 and rows4 (vector_amd64.go, vector_other.go) run
// them where no vector kernel serves the row, and the tests compare
// those kernels with them.
func rows2Go(out []complex128, ostep, orow int, in []complex128, istep, m, w int, tw []complex128, sc complex128, scaled bool) {
	for k1 := 0; k1 < m; k1++ {
		w1 := tw[k1]
		ib, ob := in[k1*w:], out[k1*orow:]
		i0, i1 := ib[:w], ib[istep:][:w]
		o0, o1 := ob[:w], ob[ostep:][:w]
		for t := range i0 {
			a, b := i0[t], i1[t]*w1
			x0, x1 := a+b, a-b
			if scaled {
				x0, x1 = x0*sc, x1*sc
			}
			o0[t], o1[t] = x0, x1
		}
	}
}

func line3(out []complex128, ostep, orow int, in []complex128, istep, m int, tw []complex128, im float64, sc complex128, scaled bool) {
	for k1 := 0; k1 < m; k1++ {
		o := k1 * orow
		x0, x1, x2 := bf3(in[k1], in[istep+k1]*tw[2*k1], in[2*istep+k1]*tw[2*k1+1], im)
		if scaled {
			x0, x1, x2 = x0*sc, x1*sc, x2*sc
		}
		out[o], out[o+ostep], out[o+2*ostep] = x0, x1, x2
	}
}

func rows3Go(out []complex128, ostep, orow int, in []complex128, istep, m, w int, tw []complex128, im float64, sc complex128, scaled bool) {
	for k1 := 0; k1 < m; k1++ {
		w1, w2 := tw[2*k1], tw[2*k1+1]
		ib, ob := in[k1*w:], out[k1*orow:]
		i0, i1, i2 := ib[:w], ib[istep:][:w], ib[2*istep:][:w]
		o0, o1, o2 := ob[:w], ob[ostep:][:w], ob[2*ostep:][:w]
		for t := range i0 {
			x0, x1, x2 := bf3(i0[t], i1[t]*w1, i2[t]*w2, im)
			if scaled {
				x0, x1, x2 = x0*sc, x1*sc, x2*sc
			}
			o0[t], o1[t], o2[t] = x0, x1, x2
		}
	}
}

func line4(out []complex128, ostep, orow int, in []complex128, istep, m int, tw []complex128, fwd bool, sc complex128, scaled bool) {
	for k1 := 0; k1 < m; k1++ {
		o := k1 * orow
		x0, x1, x2, x3 := bf4(in[k1], in[istep+k1]*tw[3*k1], in[2*istep+k1]*tw[3*k1+1], in[3*istep+k1]*tw[3*k1+2], fwd)
		if scaled {
			x0, x1, x2, x3 = x0*sc, x1*sc, x2*sc, x3*sc
		}
		out[o], out[o+ostep], out[o+2*ostep], out[o+3*ostep] = x0, x1, x2, x3
	}
}

func rows4Go(out []complex128, ostep, orow int, in []complex128, istep, m, w int, tw []complex128, fwd bool, sc complex128, scaled bool) {
	for k1 := 0; k1 < m; k1++ {
		w1, w2, w3 := tw[3*k1], tw[3*k1+1], tw[3*k1+2]
		ib, ob := in[k1*w:], out[k1*orow:]
		i0, i1, i2, i3 := ib[:w], ib[istep:][:w], ib[2*istep:][:w], ib[3*istep:][:w]
		o0, o1, o2, o3 := ob[:w], ob[ostep:][:w], ob[2*ostep:][:w], ob[3*ostep:][:w]
		for t := range i0 {
			x0, x1, x2, x3 := bf4(i0[t], i1[t]*w1, i2[t]*w2, i3[t]*w3, fwd)
			if scaled {
				x0, x1, x2, x3 = x0*sc, x1*sc, x2*sc, x3*sc
			}
			o0[t], o1[t], o2[t], o3[t] = x0, x1, x2, x3
		}
	}
}
