// Command a2abench is the standalone MPI all-to-all kernel of §4.1:
// it performs blocking exchanges that mimic the DNS transposes without
// computing or moving data between CPU and GPU. Two modes:
//
//   - -mode real: measure the in-process runtime's all-to-all at small
//     rank counts (wall-clock on this machine). mpi.Alltoall runs the
//     same publish → barrier → gather round as ExchangePlan.Do, the
//     path every DNS transpose takes, with the gather copying each
//     peer's block into the receive buffer;
//   - -mode model: evaluate the calibrated Summit network model,
//     regenerating the paper's Table 2.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/simnet"
	"repro/internal/stats"
)

func main() {
	var (
		mode  = flag.String("mode", "model", "real or model")
		ranks = flag.Int("ranks", 4, "ranks for -mode real")
		bytes = flag.Int("bytes", 1<<20, "per-destination message bytes for -mode real")
		iters = flag.Int("iters", 5, "iterations for -mode real")
		metOn = flag.Bool("metrics", false, "print the runtime's collective metrics after -mode real")
	)
	flag.Parse()

	switch *mode {
	case "model":
		fmt.Println("Effective all-to-all bandwidth per node (calibrated Summit model, Table 2):")
		fmt.Printf("%-6s %-4s %12s %12s\n", "Nodes", "Cfg", "P2P (MB)", "BW (GB/s)")
		for _, r := range simnet.SummitA2A().Table2() {
			fmt.Printf("%-6d %-4s %12.3f %12.1f\n", r.Nodes, r.Cfg, r.P2P/(1<<20), r.BW/1e9)
		}
	case "real":
		words := *bytes / 8
		if words < 1 {
			log.Fatal("message too small")
		}
		fmt.Printf("in-process blocking all-to-all: %d ranks × %d B per destination\n", *ranks, *bytes)
		if *metOn {
			metrics.Enable()
		}
		var agg stats.Running
		mpi.Run(*ranks, func(c *mpi.Comm) {
			send := make([]float64, c.Size()*words)
			recv := make([]float64, c.Size()*words)
			for i := range send {
				send[i] = float64(i)
			}
			c.Barrier()
			for it := 0; it < *iters; it++ {
				start := time.Now()
				mpi.Alltoall(c, send, recv)
				c.Barrier()
				el := time.Since(start).Seconds()
				if c.Rank() == 0 {
					agg.Add(el)
				}
			}
		})
		vol := float64(2 * *ranks * *ranks * *bytes)
		fmt.Printf("time: %s\n", agg.String())
		fmt.Printf("aggregate copy rate: %.2f GB/s\n", vol/agg.Mean()/1e9)
		if *metOn {
			metrics.Disable()
			snap := metrics.Default().Snapshot().Filter("mpi.")
			fmt.Println("collective metrics (max over ranks):")
			fmt.Print(snap.MaxOverRanks().Text())
			fmt.Println("collective metrics (summed over ranks):")
			fmt.Print(snap.SumOverRanks().Text())
		}
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
}
