// Command postproc loads a checkpoint directory written by cmd/dns,
// cmd/campaign (or any Solver.SaveCheckpoint call) and emits the
// standard turbulence post-processing: single-time statistics, spectra,
// two-point correlations and structure functions, gradient moments,
// scalar variances, and an optional velocity-slice PNG — the offline
// analysis pass of a DNS campaign. Grid size, rank count, viscosity and
// equation set are read from the checkpoint itself.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/mpi"
	"repro/internal/spectral"
)

func main() {
	var (
		dir    = flag.String("ckpt", "", "checkpoint directory (required)")
		pngOut = flag.String("png", "", "write a z-midplane PNG of u to this path")
	)
	flag.Parse()
	if *dir == "" {
		flag.Usage()
		os.Exit(2)
	}
	info, err := spectral.PeekCheckpoint(*dir)
	if err != nil {
		log.Fatal(err)
	}
	if spectral.SystemCode(info.System) < 0 {
		log.Fatalf("checkpoint written by system %q, which this binary does not register (have %v)", info.System, spectral.Systems())
	}
	n := info.N

	mpi.Run(info.Ranks, func(c *mpi.Comm) {
		s, err := loadSolver(c, *dir, info)
		if err != nil {
			log.Fatalf("rank %d: %v", c.Rank(), err)
		}
		defer s.Close()
		root := c.Rank() == 0

		st := s.Statistics()
		div := s.DivergenceMax()
		if root {
			fmt.Printf("checkpoint: step %d, t=%.4f, %d³ on %d ranks, ν=%g, system %s\n\n",
				s.StepCount(), s.Time(), n, info.Ranks, info.Nu, info.System)
			fmt.Printf("E=%.5f  ε=%.5f  Ω=%.4f  u'=%.4f  λ=%.4f  Re_λ=%.1f  η=%.4g  kmaxη=%.2f\n",
				st.Energy, st.Dissipation, st.Enstrophy, st.URMS,
				st.TaylorScale, st.ReLambda, st.Kolmogorov, st.KMaxEta)
			fmt.Printf("max|k·û| = %.2e\n\n", div)
		}

		spec := s.Spectrum()
		lint := s.IntegralScale()
		s2 := s.StructureFunction2()
		if root {
			fmt.Println("energy spectrum E(k):")
			for k := 1; k <= n/3; k++ {
				fmt.Printf("  %3d  %.4e\n", k, spec[k])
			}
			fmt.Printf("\nintegral scale L11 = %.4f\n", lint)
			fmt.Println("\nstructure function S2(r):")
			for r := 1; r <= n/4; r++ {
				fmt.Printf("  r=%2d  %.4e\n", r, s2[r])
			}
			fmt.Println()
		}

		for f := 3; f < s.Fields(); f++ {
			v := s.FieldVariance(f)
			if root {
				fmt.Printf("scalar %d: ⟨θ²⟩=%.5g\n", f-3, v)
			}
		}

		for comp := 0; comp < 3; comp++ {
			g := s.LongitudinalGradientStats(comp)
			if root {
				fmt.Printf("∂u%c/∂x%c: var=%.4g skew=%.3f flat=%.2f range=[%.3g, %.3g]\n",
					'u'+byte(comp), 'x'+byte(comp), g.Variance, g.Skewness, g.Flatness, g.Min, g.Max)
			}
		}

		if *pngOut != "" {
			plane := s.SliceZ(0, n/2)
			if root {
				f, err := os.Create(*pngOut)
				if err != nil {
					log.Fatal(err)
				}
				defer f.Close()
				if err := spectral.WriteSlicePNG(f, plane, n, n); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("\nwrote %s\n", *pngOut)
			}
		}
	})
}

// loadSolver builds the solver a checkpoint describes and restores
// this rank's state into it (collective). The header names the
// equation set; what it does not record — the forcing controller of
// forced-ns, restored by LoadCheckpoint itself, and the scalars'
// Schmidt numbers, which no statistic here needs — keeps its default.
func loadSolver(c *mpi.Comm, dir string, info spectral.CheckpointInfo) (*spectral.Solver, error) {
	s := spectral.New(c, info.N,
		spectral.WithNu(info.Nu),
		spectral.WithDealias(spectral.Dealias23),
		spectral.WithSystem(info.System),
		spectral.WithScalars(info.Fields-3),
	)
	// A load error is rank-local while Close is collective, so the
	// failing rank leaves the solver to the caller's fatal exit.
	if err := s.LoadCheckpoint(dir); err != nil {
		return nil, err
	}
	return s, nil
}
