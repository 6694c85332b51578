// Forced isotropic turbulence — the production workload of the paper,
// at laptop scale: a 48³ simulation driven by the "forced-ns" system
// (stochastic large-scale forcing at a prescribed injection rate) to a
// statistically stationary state on the asynchronous transform engine,
// reporting the standard single-time statistics and an ASCII energy
// spectrum.
package main

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/mpi"
	"repro/internal/pfft"
	"repro/internal/spectral"
)

func main() {
	const (
		n     = 48
		ranks = 4
		nu    = 0.008
		dt    = 0.004
		steps = 60
	)
	fmt.Printf("forced isotropic turbulence: %d³, ν=%g, %d RK2 steps on the async engine\n\n", n, nu, steps)

	var spec []float64
	var st spectral.Stats
	var eHist []float64
	mpi.Run(ranks, func(c *mpi.Comm) {
		tr := pfft.NewAsyncSlabReal(c, n, pfft.Options{NP: 4, Granularity: pfft.PerSlab})
		defer tr.Close()
		s := spectral.New(c, n,
			spectral.WithNu(nu),
			spectral.WithScheme(spectral.RK2),
			spectral.WithDealias(spectral.Dealias23),
			spectral.WithForcing(2, 0.1),
			spectral.WithForcingNoise(1.0, 11),
			spectral.WithTransform(tr),
		)
		defer s.Close()
		s.SetRandomIsotropic(2.5, 0.6, 11)
		for i := 0; i < steps; i++ {
			s.Step(dt)
			e := s.Energy()
			if c.Rank() == 0 {
				eHist = append(eHist, e)
			}
		}
		sp := s.Spectrum()
		stat := s.Statistics()
		if c.Rank() == 0 {
			spec = sp
			st = stat
		}
	})

	fmt.Println("energy history (stochastic forcing feeds the large scales):")
	for i := 9; i < len(eHist); i += 10 {
		fmt.Printf("  t=%.3f  E=%.5f\n", float64(i+1)*dt, eHist[i])
	}
	fmt.Printf("\nstationary statistics:\n")
	fmt.Printf("  E=%.4f  ε=%.4f  u'=%.4f  λ=%.4f  Re_λ=%.1f  η=%.4f  kmaxη=%.2f  T_E=%.2f\n\n",
		st.Energy, st.Dissipation, st.URMS, st.TaylorScale, st.ReLambda,
		st.Kolmogorov, st.KMaxEta, st.IntegralT)

	fmt.Println("energy spectrum E(k) (log scale, '#' bars):")
	maxLog := math.Inf(-1)
	minLog := math.Inf(1)
	kmax := n / 3
	for k := 1; k <= kmax; k++ {
		if spec[k] > 0 {
			l := math.Log10(spec[k])
			maxLog = math.Max(maxLog, l)
			minLog = math.Min(minLog, l)
		}
	}
	for k := 1; k <= kmax; k++ {
		width := 0
		if spec[k] > 0 {
			width = int(50 * (math.Log10(spec[k]) - minLog + 0.5) / (maxLog - minLog + 0.5))
		}
		if width < 0 {
			width = 0
		}
		fmt.Printf("  k=%2d %10.3e |%s\n", k, spec[k], strings.Repeat("#", width))
	}
	fmt.Println("\n(the spectrum peaks at the forced shells and falls steeply toward the")
	fmt.Println(" dealiasing cutoff — the resolved-dissipation regime of a well-resolved DNS)")
}
