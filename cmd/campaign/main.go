// Command campaign drives a multi-stage DNS campaign from a JSON
// config: develop at one resolution, spectrally regrid to the next,
// continue — the workflow behind record-resolution runs like the
// paper's 18432³, which are seeded from smaller developed fields. Each
// stage can add a passive scalar, Lagrangian particles, checkpoints
// and slice images. forcingShells forces the large scales (the
// forced-ns system); a scalar stage runs the rotating-scalar system,
// which carries no forcing.
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
	Scalar     bool    `json:"scalar"`     // carry a passive scalar (Sc 1, mean gradient 1) on rotating-scalar
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
	ForcingShells int     `json:"forcingShells"` // highest forced shell (0 = decaying)
	Stages        []Stage `json:"stages"`

	gran pfft.Granularity // Gran parsed by validate
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
	if err := cfg.validate(); err != nil {
		log.Fatalf("config: %v", err)
	}
	fmt.Printf("campaign: %d stages on %d ranks, ν=%g, engine=%s\n",
		len(cfg.Stages), cfg.Ranks, cfg.Nu, cfg.Engine)

	mpi.Run(cfg.Ranks, func(c *mpi.Comm) {
		root := c.Rank() == 0
		var prev *spectral.Solver
		for si, st := range cfg.Stages {
			solver := buildSolver(c, cfg, st)
			if root {
				fmt.Printf("stage %d: equation set %s\n", si, solver.System().Name())
			}
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
				solver.Step(dt)
				timer.End()
			}
			stt := solver.Statistics()
			div := solver.DivergenceMax()
			var thVar, thChi float64
			if st.Scalar {
				thVar, thChi = solver.FieldVariance(3), solver.FieldDissipation(3)
			}
			if root {
				fmt.Printf("stage %d done: %d³, %d steps, t=%.4f, %.3fs/step\n",
					si, st.N, st.Steps, solver.Time(), timer.MeanMax())
				fmt.Printf("  E=%.5f ε=%.5f Re_λ=%.1f kmaxη=%.2f div=%.1e\n",
					stt.Energy, stt.Dissipation, stt.ReLambda, stt.KMaxEta, div)
				if st.Scalar {
					fmt.Printf("  scalar ⟨θ²⟩=%.5g χ=%.5g\n", thVar, thChi)
				}
				if parts != nil {
					fmt.Printf("  particle dispersion %.5g\n", parts.Dispersion())
				}
			}
			if st.Checkpoint != "" {
				if err := solver.SaveCheckpoint(st.Checkpoint); err != nil {
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

// validate rejects a config the campaign cannot run as written — in
// particular an engine or granularity name that would otherwise fall
// through to a default — and fills in the defaults of omitted fields.
func (cfg *Config) validate() error {
	if cfg.Ranks < 1 || len(cfg.Stages) == 0 {
		return fmt.Errorf("need ranks ≥ 1 and at least one stage")
	}
	switch cfg.Engine {
	case "":
		cfg.Engine = "sync"
	case "sync", "async", "threaded":
	default:
		return fmt.Errorf("unknown engine %q (want sync, async or threaded)", cfg.Engine)
	}
	if cfg.Gran == "" {
		cfg.Gran = "slab"
	}
	var err error
	if cfg.gran, err = pfft.ParseGranularity(cfg.Gran); err != nil {
		return fmt.Errorf("gran: %v", err)
	}
	return nil
}

// buildSolver assembles the configured transform engine and the
// stage's equation set: rotating-scalar with one Sc = 1 scalar under a
// unit mean gradient for a scalar stage, otherwise forced-ns when
// forcingShells is set, otherwise decaying ns. cfg must have passed
// validate.
func buildSolver(c *mpi.Comm, cfg Config, st Stage) *spectral.Solver {
	opts := []spectral.Option{
		spectral.WithNu(cfg.Nu), spectral.WithScheme(spectral.RK2), spectral.WithDealias(spectral.Dealias23),
	}
	switch {
	case st.Scalar:
		opts = append(opts, spectral.WithScalars(1), spectral.WithScalarGradient(1))
	case cfg.ForcingShells > 0:
		opts = append(opts, spectral.WithForcing(cfg.ForcingShells, spectral.DefaultForcingEps))
	}
	switch cfg.Engine {
	case "async":
		np := cfg.NP
		if np == 0 {
			np = 3
		}
		opts = append(opts, spectral.WithTransform(pfft.NewAsyncSlabReal(c, st.N, pfft.Options{
			NP: np, Granularity: cfg.gran, SingleComm: cfg.SingleComm,
		})))
	case "threaded":
		threads := cfg.Threads
		if threads == 0 {
			threads = 2
		}
		opts = append(opts, spectral.WithTransform(pfft.NewSlabRealWorkers(c, st.N, threads)))
	}
	s := spectral.New(c, st.N, opts...)
	s.OwnTransform() // any engine above was built for this solver alone
	return s
}
