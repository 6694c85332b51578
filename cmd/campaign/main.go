// Command campaign drives a multi-stage DNS campaign from a JSON
// config: develop at one resolution, spectrally regrid to the next,
// continue — the workflow behind record-resolution runs like the
// paper's 18432³, which are seeded from smaller developed fields. Each
// stage can add a passive scalar, Lagrangian particles, checkpoints
// and slice images.
//
// Example config:
//
//	{
//	  "ranks": 4, "nu": 0.01, "seed": 7, "k0": 2.5, "e0": 0.5,
//	  "engine": "async", "np": 4, "gran": "slab", "singleComm": true,
//	  "forcingShells": 2,
//	  "stages": [
//	    {"n": 32, "steps": 20, "cfl": 0.4},
//	    {"n": 64, "steps": 10, "cfl": 0.4, "scalar": true,
//	     "particles": 64, "checkpoint": "ckpt-final", "png": "u.png"}
//	  ]
//	}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/pfft"
	"repro/internal/spectral"
	"repro/internal/stats"
)

// Stage is one resolution segment of the campaign.
type Stage struct {
	N          int     `json:"n"`
	Steps      int     `json:"steps"`
	CFL        float64 `json:"cfl"`        // target Courant number (0 → fixed dt)
	Dt         float64 `json:"dt"`         // fixed step when CFL is 0
	Scalar     bool    `json:"scalar"`     // co-advance a passive scalar (mean gradient 1)
	Particles  int     `json:"particles"`  // Lagrangian tracer count (0 = none)
	Checkpoint string  `json:"checkpoint"` // directory to write at stage end
	PNG        string  `json:"png"`        // z-midplane image of u at stage end
}

// Config is the whole campaign description.
type Config struct {
	Ranks         int     `json:"ranks"`
	Nu            float64 `json:"nu"`
	Seed          int64   `json:"seed"`
	K0            float64 `json:"k0"`
	E0            float64 `json:"e0"`
	Engine        string  `json:"engine"` // sync | async | threaded
	NP            int     `json:"np"`
	Gran          string  `json:"gran"` // pencil | slab
	SingleComm    bool    `json:"singleComm"`
	Threads       int     `json:"threads"`
	ForcingShells int     `json:"forcingShells"`
	Stages        []Stage `json:"stages"`
}

func main() {
	cfgPath := flag.String("config", "", "campaign JSON (required)")
	flag.Parse()
	if *cfgPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	raw, err := os.ReadFile(*cfgPath)
	if err != nil {
		log.Fatal(err)
	}
	var cfg Config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		log.Fatalf("config: %v", err)
	}
	if cfg.Ranks < 1 || len(cfg.Stages) == 0 {
		log.Fatal("config needs ranks ≥ 1 and at least one stage")
	}
	fmt.Printf("campaign: %d stages on %d ranks, ν=%g, engine=%s\n",
		len(cfg.Stages), cfg.Ranks, cfg.Nu, cfg.Engine)

	mpi.Run(cfg.Ranks, func(c *mpi.Comm) {
		root := c.Rank() == 0
		var prev *spectral.Solver
		for si, st := range cfg.Stages {
			solver := buildSolver(c, cfg, st.N)
			if prev == nil {
				solver.SetRandomIsotropic(cfg.K0, cfg.E0, cfg.Seed)
			} else {
				spectral.Regrid(solver, prev)
				if root {
					fmt.Printf("stage %d: regridded %d³ → %d³ (E=%.5f preserved)\n",
						si, prev.N(), st.N, solver.Energy())
				} else {
					solver.Energy()
				}
				// The coarse stage's state now lives in the new
				// solver; release the old engine's plans (collective).
				prev.Close()
			}
			var th *spectral.Scalar
			if st.Scalar {
				th = solver.NewScalar(cfg.Nu)
				th.MeanGrad = 1
			}
			var parts *spectral.Particles
			if st.Particles > 0 {
				parts = solver.NewParticles(st.Particles, cfg.Seed+int64(si))
			}

			timer := stats.NewStepTimer(c)
			for i := 0; i < st.Steps; i++ {
				dt := st.Dt
				if st.CFL > 0 {
					dt = solver.SuggestDt(st.CFL)
				}
				if dt <= 0 {
					log.Fatalf("stage %d: invalid dt %g", si, dt)
				}
				timer.Begin()
				if parts != nil {
					solver.StepParticles(parts, dt)
				}
				if th != nil {
					solver.StepWithScalar(th, dt)
				} else {
					solver.Step(dt)
				}
				timer.End()
			}
			stt := solver.Statistics()
			div := solver.DivergenceMax()
			if root {
				fmt.Printf("stage %d done: %d³, %d steps, t=%.4f, %.3fs/step\n",
					si, st.N, st.Steps, solver.Time(), timer.MeanMax())
				fmt.Printf("  E=%.5f ε=%.5f Re_λ=%.1f kmaxη=%.2f div=%.1e\n",
					stt.Energy, stt.Dissipation, stt.ReLambda, stt.KMaxEta, div)
				if th != nil {
					fmt.Printf("  scalar ⟨θ²⟩=%.5g χ=%.5g\n",
						solver.ScalarVariance(th), solver.ScalarDissipation(th))
				}
				if parts != nil {
					fmt.Printf("  particle dispersion %.5g\n", parts.Dispersion())
				}
			} else {
				if th != nil {
					solver.ScalarVariance(th)
					solver.ScalarDissipation(th)
				}
			}
			if st.Checkpoint != "" {
				var err error
				if th != nil {
					err = solver.SaveCheckpoint(st.Checkpoint, th)
				} else {
					err = solver.SaveCheckpoint(st.Checkpoint)
				}
				if err != nil {
					log.Fatalf("rank %d: checkpoint: %v", c.Rank(), err)
				}
				if root {
					fmt.Printf("  checkpoint → %s\n", st.Checkpoint)
				}
			}
			if st.PNG != "" {
				plane := solver.SliceZ(0, st.N/2)
				if root {
					f, err := os.Create(st.PNG)
					if err != nil {
						log.Fatal(err)
					}
					if err := spectral.WriteSlicePNG(f, plane, st.N, st.N); err != nil {
						log.Fatal(err)
					}
					f.Close()
					fmt.Printf("  slice → %s\n", st.PNG)
				}
			}
			prev = solver
		}
		if prev != nil {
			prev.Close()
		}
	})
}

// buildSolver assembles the configured transform engine and solver.
func buildSolver(c *mpi.Comm, cfg Config, n int) *spectral.Solver {
	scfg := spectral.Config{N: n, Nu: cfg.Nu, Scheme: spectral.RK2, Dealias: spectral.Dealias23}
	if cfg.ForcingShells > 0 {
		scfg.Forcing = spectral.NewForcing(cfg.ForcingShells)
	}
	switch cfg.Engine {
	case "async":
		gran := core.PerSlab
		if cfg.Gran == "pencil" {
			gran = core.PerPencil
		}
		np := cfg.NP
		if np == 0 {
			np = 3
		}
		tr := core.NewAsyncSlabReal(c, n, core.Options{
			NP: np, Granularity: gran, SingleComm: cfg.SingleComm,
		})
		s := spectral.NewSolverWithTransform(c, scfg, tr)
		s.OwnTransform()
		return s
	case "threaded":
		threads := cfg.Threads
		if threads == 0 {
			threads = 2
		}
		s := spectral.NewSolverWithTransform(c, scfg,
			pfft.NewSlabRealWorkers(c, n, threads))
		s.OwnTransform()
		return s
	default:
		return spectral.NewSolver(c, scfg)
	}
}
