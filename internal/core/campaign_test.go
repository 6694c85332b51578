package core

import (
	"math"
	"testing"

	"repro/internal/mpi"
	"repro/internal/pfft"
	"repro/internal/spectral"
)

// TestProductionCampaignWorkflow exercises the full production pattern
// the paper's code exists for, at laptop scale, on the asynchronous
// engine with the single-precision wire format:
//
//  1. spin up forced turbulence at 16³ on the async engine,
//  2. checkpoint, restart into fresh objects,
//  3. spectrally regrid onto 32³ (the record-resolution seeding move),
//  4. continue with a passive scalar and Lagrangian particles,
//  5. verify every invariant along the way.
func TestProductionCampaignWorkflow(t *testing.T) {
	dir := t.TempDir()
	mpi.Run(2, func(c *mpi.Comm) {
		// Stage 1: develop at low resolution on the async pipeline.
		trSmall := pfft.NewAsyncSlabReal(c, 16, pfft.Options{NP: 3, Granularity: pfft.PerPencil, SingleComm: true})
		defer trSmall.Close()
		opts := func(extra ...spectral.Option) []spectral.Option {
			return append([]spectral.Option{spectral.WithNu(0.02), spectral.WithScheme(spectral.RK2),
				spectral.WithDealias(spectral.Dealias23)}, extra...)
		}
		forcing := spectral.WithForcing(2, spectral.DefaultForcingEps)
		s1 := spectral.New(c, 16, opts(forcing, spectral.WithTransform(trSmall))...)
		defer s1.Close()
		s1.SetRandomIsotropic(2.5, 0.5, 2024)
		for i := 0; i < 6; i++ {
			s1.Step(0.004)
		}
		if d := s1.DivergenceMax(); d > 1e-5 {
			t.Fatalf("stage 1 divergence %g (single-precision wire)", d)
		}

		// Stage 2: checkpoint and restart.
		if err := s1.SaveCheckpoint(dir); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		s2 := spectral.New(c, 16, opts(forcing)...) // restart on the sync engine: engines interoperate
		defer s2.Close()
		if err := s2.LoadCheckpoint(dir); err != nil {
			t.Fatalf("restart: %v", err)
		}
		if s2.StepCount() != 6 {
			t.Fatalf("restart step count %d", s2.StepCount())
		}
		if math.Abs(s2.Energy()-s1.Energy()) > 1e-12 {
			t.Fatalf("restart energy %g vs %g", s2.Energy(), s1.Energy())
		}

		// Stage 3: regrid to the production resolution.
		trBig := pfft.NewAsyncSlabReal(c, 32, pfft.Options{NP: 4, Granularity: pfft.PerSlab})
		defer trBig.Close()
		scalar, grad := spectral.WithScalars(1), spectral.WithScalarGradient(1)
		s3 := spectral.New(c, 32, opts(scalar, grad, spectral.WithTransform(trBig))...)
		defer s3.Close()
		spectral.Regrid(s3, s2)
		if math.Abs(s3.Energy()-s2.Energy()) > 1e-9 {
			t.Fatalf("regrid energy %g vs %g", s3.Energy(), s2.Energy())
		}

		// Stage 4: production segment with scalar and particles (the
		// regridded scalar starts from zero; the mean gradient feeds it).
		parts := s3.NewParticles(16, 9)
		dt := s3.SuggestDt(0.3)
		if dt <= 0 || math.IsInf(dt, 1) {
			t.Fatalf("SuggestDt gave %g", dt)
		}
		for i := 0; i < 6; i++ {
			s3.StepParticles(parts, dt)
			s3.Step(dt)
		}

		// Stage 5: invariants and diagnostics all sane.
		if d := s3.DivergenceMax(); d > 1e-9 {
			t.Errorf("final divergence %g", d)
		}
		if v := s3.FieldVariance(3); v <= 0 || math.IsNaN(v) {
			t.Errorf("scalar variance %g", v)
		}
		if disp := parts.Dispersion(); disp <= 0 {
			t.Errorf("particle dispersion %g", disp)
		}
		st := s3.Statistics()
		if st.ReLambda <= 0 || math.IsNaN(st.ReLambda) {
			t.Errorf("Re_λ %g", st.ReLambda)
		}
		spec := s3.Spectrum()
		var tot float64
		for _, e := range spec {
			tot += e
		}
		if math.Abs(tot-st.Energy) > 1e-9*st.Energy {
			t.Errorf("ΣE(k)=%g vs E=%g", tot, st.Energy)
		}
		// Final checkpoint including the scalar, restorable into a
		// fresh solver of the same system.
		if err := s3.SaveCheckpoint(dir + "/final"); err != nil {
			t.Errorf("final checkpoint: %v", err)
		}
		s4 := spectral.New(c, 32, opts(scalar, grad)...)
		defer s4.Close()
		if err := s4.LoadCheckpoint(dir + "/final"); err != nil {
			t.Errorf("final restart: %v", err)
		}
		if a, b := s4.FieldVariance(3), s3.FieldVariance(3); a != b {
			t.Errorf("restored scalar variance %g vs %g", a, b)
		}
	})
}
