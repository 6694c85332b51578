package fft

import "fmt"

// Batch executes many transforms of the same length over strided data,
// mirroring the cufftPlanMany advanced-layout semantics the paper's GPU
// code depends on: transform t reads element j from
// src[t·idist + j·istride] and writes element k to
// dst[t·odist + k·ostride].
type Batch struct {
	p              *Plan
	howmany        int
	istride, idist int
	ostride, odist int
	tiles          int // plane form: number of column tiles; 0 selects line form
}

// Plane-form blocks. planeBlock bounds the complex batch's block, n
// rows of one tile of adjacent lines, to 256 KiB of complex128: a
// fraction of any L2 cache, yet wide enough that a whole N ≤ 128
// half-spectrum plane is one tile (measured: wider tiles are faster up
// to there and within noise beyond). realBlock bounds the real batch's
// packed tile, n/2 rows of adjacent lines, to 32 KiB of complex128 (the
// program's block beside it is as large): a slab y-plane's whole x pass
// is one tile at N ≤ 64, and N = 128 runs two 32-line tiles (measured
// there per line forward against line by line: 32-line tiles −15 %, one
// 64-line tile +5 %). Tiles never get narrower than minTile lines.
const (
	planeBlock = 1 << 14
	realBlock  = 1 << 11
	minTile    = 8
)

// split divides howmany lines into the fewest tiles of at most tile
// lines, and reports how many and the widest one's width; tile i spans
// lines [i·howmany/tiles, (i+1)·howmany/tiles), so widths differ by at
// most one.
func split(howmany, tile int) (tiles, width int) {
	if howmany == 0 {
		return 0, 1
	}
	tiles = (howmany + tile - 1) / tile
	return tiles, (howmany + tiles - 1) / tiles
}

// realTile is the real batch's widest tile at length n, in lines.
func realTile(n int) int { return max(realBlock/max(n/2, 1), minTile) }

// NewBatch creates a batched plan of howmany length-n transforms with
// the given input/output strides and distances.
func NewBatch(n, howmany, istride, idist, ostride, odist int) *Batch {
	if howmany < 0 || istride < 1 || ostride < 1 || idist < 0 || odist < 0 {
		panic(fmt.Sprintf("fft: invalid batch layout howmany=%d istride=%d idist=%d ostride=%d odist=%d", howmany, istride, idist, ostride, odist))
	}
	b := &Batch{
		howmany: howmany,
		istride: istride, idist: idist,
		ostride: ostride, odist: odist,
	}
	// The batch dimension is the contiguous one: run whole rows of
	// adjacent lines through each butterfly instead of line by line.
	width := 1
	if idist == 1 && odist == 1 && howmany > 1 {
		b.tiles, width = split(howmany, max(planeBlock/n, minTile))
	}
	b.p = newPlan(n, width)
	if b.p.prog == nil {
		b.tiles = 0
	}
	return b
}

// Release returns the batch's scratch to the process buffer arena. The
// batch must not be used afterwards.
func (b *Batch) Release() { b.p.Release() }

// NewContiguousBatch is shorthand for howmany back-to-back unit-stride
// transforms.
func NewContiguousBatch(n, howmany int) *Batch {
	return NewBatch(n, howmany, 1, n, 1, n)
}

// Len reports the transform length.
func (b *Batch) Len() int { return b.p.Len() }

// Forward runs all forward transforms. dst and src may alias.
func (b *Batch) Forward(dst, src []complex128) { b.exec(dst, src, Forward) }

// Inverse runs all inverse transforms (each scaled by 1/n).
func (b *Batch) Inverse(dst, src []complex128) { b.exec(dst, src, Inverse) }

// checkSpan panics unless a buffer of have elements holds howmany lines
// of n elements laid out at (stride, dist), so that a short buffer is
// refused here and not by an index panic inside a kernel.
func checkSpan(what string, have, n, howmany, stride, dist int) {
	if need := (howmany-1)*dist + (n-1)*stride + 1; howmany > 0 && have < need {
		panic(fmt.Sprintf("fft: batch layout spans %d elements of %s, got %d", need, what, have))
	}
}

//psdns:hotpath
func (b *Batch) exec(dst, src []complex128, dir Direction) {
	n := b.p.Len()
	checkSpan("src", len(src), n, b.howmany, b.istride, b.idist)
	checkSpan("dst", len(dst), n, b.howmany, b.ostride, b.odist)
	transforms.Add(int64(b.howmany))
	if b.tiles == 0 {
		for t := 0; t < b.howmany; t++ {
			b.p.line(dst[t*b.odist:], b.ostride, src[t*b.idist:], b.istride, dir)
		}
		return
	}
	for i, t0 := 0, 0; i < b.tiles; i++ {
		t1 := (i + 1) * b.howmany / b.tiles
		b.p.prog.run(dst[t0:], b.ostride, src[t0:], b.istride, b.p.work, b.p.gen, t1-t0, dir)
		t0 = t1
	}
}

// RealBatch is the real-to-complex analogue of Batch: howmany length-n
// real transforms with strided layouts. Strides attach to the data
// domain, not the call direction: (rstride, rdist) address the real
// sequences and (cstride, cdist) the half-spectra, in both Forward and
// Inverse, so one plan serves the DNS's r2c and c2r x-transforms.
//
// A batch may be band-limited to the first kb bins of every
// half-spectrum (NewBandRealBatch): Forward then stores bins [0, kb)
// and leaves the rest of each line as it was, and Inverse reads bins
// [0, kb) and takes the rest as +0 — bit for bit the full plan's result
// for a spectrum that is +0 there. Odd lengths ignore the band.
//
// An even length runs its lines in plane form, a tile of adjacent lines
// at a time (RealPlan.forward), at any layout; the batch holds the
// tile's two blocks, which Release returns to the arena.
type RealBatch struct {
	p              *RealPlan
	howmany, kb    int
	tiles          int
	rstride, rdist int
	cstride, cdist int
}

// NewRealBatch creates a batched real-transform plan over whole
// half-spectra.
func NewRealBatch(n, howmany, rstride, rdist, cstride, cdist int) *RealBatch {
	return NewBandRealBatch(n, n/2+1, howmany, rstride, rdist, cstride, cdist)
}

// NewBandRealBatch creates a batched real-transform plan whose
// half-spectra are band-limited to their first kb bins, 1 ≤ kb ≤ n/2+1
// (n/2+1 is NewRealBatch's full band).
func NewBandRealBatch(n, kb, howmany, rstride, rdist, cstride, cdist int) *RealBatch {
	if howmany < 0 || rstride < 1 || cstride < 1 || rdist < 0 || cdist < 0 {
		panic(fmt.Sprintf("fft: invalid real batch layout howmany=%d rstride=%d rdist=%d cstride=%d cdist=%d", howmany, rstride, rdist, cstride, cdist))
	}
	if kb < 1 || kb > n/2+1 {
		panic(fmt.Sprintf("fft: real batch band kb=%d outside [1, %d] for n=%d", kb, n/2+1, n))
	}
	tiles, width := split(howmany, realTile(n))
	return &RealBatch{
		p:       newRealPlan(n, width),
		howmany: howmany, kb: kb, tiles: tiles,
		rstride: rstride, rdist: rdist,
		cstride: cstride, cdist: cdist,
	}
}

// Release returns the plan's scratch to the process buffer arena. The
// batch must not be used afterwards.
func (b *RealBatch) Release() { b.p.Release() }

// check panics unless the real side holds nr and the complex side nc
// elements' worth of the batch layout.
func (b *RealBatch) check(nr, nc int) {
	checkSpan("real data", nr, b.p.Len(), b.howmany, b.rstride, b.rdist)
	checkSpan("half-spectrum", nc, b.p.HalfLen(), b.howmany, b.cstride, b.cdist)
}

// Forward transforms howmany real sequences from src into half-spectra
// in dst (bins [0, kb) of each).
//
//psdns:hotpath
func (b *RealBatch) Forward(dst []complex128, src []float64) {
	b.check(len(src), len(dst))
	b.p.count(b.howmany)
	for i, t0 := 0, 0; i < b.tiles; i++ {
		t1 := (i + 1) * b.howmany / b.tiles
		b.p.forward(dst[t0*b.cdist:], b.cstride, b.cdist, src[t0*b.rdist:], b.rstride, b.rdist, b.kb, t1-t0)
		t0 = t1
	}
}

// Inverse transforms howmany half-spectra from src (bins [0, kb) of
// each) into real sequences in dst (each scaled by 1/n).
//
//psdns:hotpath
func (b *RealBatch) Inverse(dst []float64, src []complex128) {
	b.check(len(dst), len(src))
	b.p.count(b.howmany)
	for i, t0 := 0, 0; i < b.tiles; i++ {
		t1 := (i + 1) * b.howmany / b.tiles
		b.p.inverse(dst[t0*b.rdist:], b.rstride, b.rdist, src[t0*b.cdist:], b.cstride, b.cdist, b.kb, t1-t0)
		t0 = t1
	}
}
