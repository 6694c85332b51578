// Quickstart: a distributed 3D FFT and one Navier–Stokes RK2 step in
// ~40 lines. Ranks are goroutines, so this runs anywhere Go runs.
package main

import (
	"fmt"
	"math"

	"repro/internal/mpi"
	"repro/internal/pfft"
	"repro/internal/spectral"
)

func main() {
	const n = 32    // grid points per direction
	const ranks = 4 // "MPI" ranks, in-process

	mpi.Run(ranks, func(c *mpi.Comm) {
		// The paper's batched asynchronous transform engine: each
		// rank's slab cycles through "GPU" memory in 4 pencils, with a
		// non-blocking all-to-all per pencil.
		tr := pfft.NewAsyncSlabReal(c, n, pfft.Options{
			NP:          4,
			Granularity: pfft.PerPencil,
		})
		defer tr.Close()

		// A full pseudo-spectral Navier–Stokes solver on top of it.
		solver := spectral.New(c, n,
			spectral.WithNu(0.02),
			spectral.WithScheme(spectral.RK2),
			spectral.WithDealias(spectral.Dealias23),
			spectral.WithTransform(tr),
		)
		defer solver.Close()

		solver.SetTaylorGreen()
		e0 := solver.Energy()
		for i := 0; i < 5; i++ {
			solver.Step(0.01)
		}
		e1 := solver.Energy()
		div := solver.DivergenceMax()

		if c.Rank() == 0 {
			fmt.Printf("Taylor–Green vortex, %d³ grid on %d ranks\n", n, ranks)
			fmt.Printf("energy: %.6f → %.6f after 5 RK2 steps (viscous decay)\n", e0, e1)
			fmt.Printf("mass conservation: max|k·û| = %.2e\n", div)
			if e1 >= e0 || div > 1e-10 || math.IsNaN(e1) {
				fmt.Println("UNEXPECTED: check the installation")
			} else {
				fmt.Println("OK")
			}
		}
	})
}
