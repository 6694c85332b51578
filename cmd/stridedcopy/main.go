// Command stridedcopy explores the host↔device strided-copy strategies
// of §4.2. Mode "model" evaluates the calibrated Summit cost model
// (regenerating Figs 7 and 8); mode "real" measures the actual strided
// copy machinery of this repository on host memory, demonstrating the
// same qualitative effect — finer granularity costs more — on real
// hardware, whatever it is. Mode "gather" sweeps the tile depth of the
// cache-blocked fused-gather kernels on the actual slab geometry, the
// measurement transpose.DefaultGatherTile is pinned from.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/cuda"
	"repro/internal/transpose"
)

func main() {
	var (
		mode  = flag.String("mode", "model", "model, real or gather")
		total = flag.Int("total", 64<<20, "total bytes to move in -mode real")
		n     = flag.Int("n", 128, "grid points per direction for -mode gather")
		p     = flag.Int("p", 4, "slab count (ranks) for -mode gather")
		reps  = flag.Int("reps", 20, "timed repetitions per tile for -mode gather")
	)
	flag.Parse()

	switch *mode {
	case "model":
		cost := cuda.SummitCopyCost()
		fmt.Println("Fig 7 — time to move 216 MB with strided access (model):")
		fmt.Printf("%-14s %14s %14s %14s\n", "chunk (KB)", "manyMemcpy(ms)", "zeroCopy(ms)", "memcpy2D(ms)")
		for _, p := range cost.Fig7() {
			fmt.Printf("%-14.1f %14.3f %14.3f %14.3f\n",
				p.ChunkBytes/1e3, p.ManyMemcpy*1e3, p.ZeroCopy*1e3, p.Memcpy2D*1e3)
		}
		fmt.Println("\nFig 8 — zero-copy kernel bandwidth vs thread blocks (model):")
		fmt.Printf("%-8s %12s %12s\n", "blocks", "H2D (GB/s)", "D2H (GB/s)")
		for _, p := range cost.Fig8() {
			fmt.Printf("%-8d %12.1f %12.1f\n", p.Blocks, p.H2DBW/1e9, p.D2HBW/1e9)
		}
	case "real":
		elems := *total / 8
		src := make([]float64, elems)
		dst := make([]float64, elems)
		for i := range src {
			src[i] = float64(i)
		}
		fmt.Printf("real strided copies of %d MB on this host:\n", *total>>20)
		fmt.Printf("%-14s %12s %14s\n", "chunk (KB)", "time (ms)", "rate (GB/s)")
		for chunk := 256; chunk <= elems/4; chunk *= 4 {
			rows := elems / (2 * chunk)
			start := time.Now()
			transpose.CopyStrided(dst, 2*chunk, src, 2*chunk, chunk, rows)
			el := time.Since(start).Seconds()
			moved := float64(rows * chunk * 8)
			fmt.Printf("%-14.1f %12.3f %14.2f\n", float64(chunk*8)/1e3, el*1e3, moved/el/1e9)
		}
	case "gather":
		gatherSweep(*n, *p, *reps)
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
}

// gatherSweep times one full y→z fused gather (every peer's
// contribution to one rank's slab) per tile depth, on the same
// [Mz][Ny][Nxh] complex128 slab geometry the engines exchange. Tile 0
// is the untiled plain kernel; the table makes the choice of
// transpose.DefaultGatherTile reproducible on any host.
func gatherSweep(n, p, reps int) {
	nxh := n/2 + 1
	l := transpose.NewSlabLayout(nxh, n, n/p, p)
	srcs := make([][]complex128, p)
	for s := range srcs {
		srcs[s] = make([]complex128, l.Total)
		for i := range srcs[s] {
			srcs[s][i] = complex(float64(s), float64(i%13))
		}
	}
	dst := make([]complex128, l.Total)
	bytes := float64(l.Total) * 16
	fmt.Printf("fused y→z gather, N=%d P=%d (slab %d MiB, stride %d KiB, default tile %d):\n",
		n, p, l.Total*16>>20, l.Nz*nxh*16>>10, transpose.DefaultGatherTile)
	fmt.Printf("%-10s %12s %14s\n", "tile", "time (ms)", "rate (GB/s)")
	for _, tile := range []int{0, 1, 2, 4, 8, 16, 32} {
		if tile > l.Mz {
			continue
		}
		run := func() {
			if tile == 0 {
				transpose.GatherYZRange(&l, dst, srcs, 0, 0, l.My)
			} else {
				transpose.GatherYZRangeBlocked(&l, dst, srcs, 0, 0, l.My, tile)
			}
		}
		run() // warm
		start := time.Now()
		for r := 0; r < reps; r++ {
			run()
		}
		el := time.Since(start).Seconds() / float64(reps)
		name := fmt.Sprintf("%d", tile)
		if tile == 0 {
			name = "plain"
		}
		fmt.Printf("%-10s %12.3f %14.2f\n", name, el*1e3, bytes/el/1e9)
	}
}
