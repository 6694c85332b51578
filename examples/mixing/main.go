// Passive-scalar mixing: a scalar field with an imposed mean gradient
// is stirred by decaying isotropic turbulence — the turbulent-mixing
// companion workload of the paper's research group (§3.3's reference
// to GPU-accelerated high-Schmidt-number mixing). Demonstrates the
// rotating-scalar system (the scalar is field 3 of the one Step),
// scalar statistics, and checkpoint/restart mid-campaign.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/mpi"
	"repro/internal/spectral"
)

func main() {
	const (
		n     = 32
		ranks = 4
		nu    = 0.01
		sc    = 1.0 // Schmidt number ν/κ
		dt    = 0.004
	)
	dir, err := os.MkdirTemp("", "mixing-ckpt-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	fmt.Printf("passive-scalar mixing: %d³, ν=%g, Sc=%g, mean gradient G=1\n\n", n, nu, sc)

	mpi.Run(ranks, func(c *mpi.Comm) {
		opts := []spectral.Option{
			spectral.WithNu(nu),
			spectral.WithScheme(spectral.RK2),
			spectral.WithDealias(spectral.Dealias23),
			spectral.WithScalars(1, sc),
			spectral.WithScalarGradient(1),
		}
		s := spectral.New(c, n, opts...)
		defer s.Close()
		s.SetRandomIsotropic(2.5, 0.6, 31)

		root := c.Rank() == 0
		report := func(tag string) {
			v := s.FieldVariance(3)
			chi := s.FieldDissipation(3)
			e := s.Energy()
			if root {
				fmt.Printf("%-18s t=%.3f  E=%.4f  ⟨θ²⟩=%.5f  χ=%.5f\n", tag, s.Time(), e, v, chi)
			}
		}

		report("start")
		for i := 0; i < 20; i++ {
			s.Step(dt)
		}
		report("after 20 steps")

		// Mid-campaign checkpoint, as a production run would do before
		// its allocation ends.
		if err := s.SaveCheckpoint(dir); err != nil {
			log.Fatalf("rank %d: checkpoint: %v", c.Rank(), err)
		}
		if root {
			fmt.Printf("\ncheckpoint written to %s (one file per rank)\n", dir)
		}

		// "Next job": fresh solver objects restored from disk.
		s2 := spectral.New(c, n, opts...)
		defer s2.Close()
		if err := s2.LoadCheckpoint(dir); err != nil {
			log.Fatalf("rank %d: restart: %v", c.Rank(), err)
		}
		if root {
			fmt.Printf("restarted at step %d, t=%.3f\n\n", s2.StepCount(), s2.Time())
		}
		for i := 0; i < 20; i++ {
			s2.Step(dt)
		}
		v := s2.FieldVariance(3)
		chi := s2.FieldDissipation(3)
		if root {
			fmt.Printf("%-18s t=%.3f  ⟨θ²⟩=%.5f  χ=%.5f\n", "after restart+20", s2.Time(), v, chi)
		}

		// Scalar spectrum at the end.
		spec := s2.Spectrum(3)
		if root {
			fmt.Println("\nscalar spectrum E_θ(k):")
			for k := 1; k <= n/3; k += 1 {
				fmt.Printf("  k=%2d  %.4e\n", k, spec[k])
			}
			fmt.Println("\n(the mean-gradient production −G·u_y feeds scalar fluctuations")
			fmt.Println(" against diffusive destruction χ)")
		}
	})
}
