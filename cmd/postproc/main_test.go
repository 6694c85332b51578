package main

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/spectral"
)

// Every checkpoint the tree writes restores through postproc's loader
// with nothing but the directory: the scalar-stage one (rotating-scalar,
// 4 fields) used to be rejected as "4 fields written, 3 expected".
func TestLoadSolverReadsEverySystem(t *testing.T) {
	for _, tc := range []struct {
		system string
		fields int
		opts   []spectral.Option
	}{
		{"ns", 3, nil},
		{"forced-ns", 3, []spectral.Option{spectral.WithForcing(3, 0.2)}},
		{"rotating-scalar", 4, []spectral.Option{spectral.WithScalars(1), spectral.WithScalarGradient(1)}},
	} {
		dir := t.TempDir()
		var want float64
		mpi.Run(2, func(c *mpi.Comm) {
			s := spectral.New(c, 16, append([]spectral.Option{
				spectral.WithNu(0.02), spectral.WithDealias(spectral.Dealias23)}, tc.opts...)...)
			defer s.Close()
			s.SetRandomIsotropic(3, 0.5, 5)
			s.Step(0.004)
			s.Step(0.004)
			if err := s.SaveCheckpoint(dir); err != nil {
				t.Errorf("%s: save: %v", tc.system, err)
			}
			if v := s.FieldVariance(tc.fields - 1); c.Rank() == 0 {
				want = v
			}
		})
		info, err := spectral.PeekCheckpoint(dir)
		if err != nil {
			t.Fatalf("%s: peek: %v", tc.system, err)
		}
		if info.System != tc.system || info.Fields != tc.fields || info.N != 16 || info.Ranks != 2 || info.Nu != 0.02 {
			t.Errorf("%s: peek %+v", tc.system, info)
		}
		mpi.Run(info.Ranks, func(c *mpi.Comm) {
			s, err := loadSolver(c, dir, info)
			if err != nil {
				t.Errorf("%s: rank %d: %v", tc.system, c.Rank(), err)
				return
			}
			defer s.Close()
			if s.StepCount() != 2 || s.Fields() != tc.fields {
				t.Errorf("%s: restored step %d, %d fields", tc.system, s.StepCount(), s.Fields())
			}
			if got := s.FieldVariance(tc.fields - 1); c.Rank() == 0 && got != want {
				t.Errorf("%s: last-field variance %g, want %g", tc.system, got, want)
			}
			if tc.system == "forced-ns" {
				if f := s.System().(*spectral.ForcedNS).Forcing(); f.KF != 3 || f.Eps != 0.2 {
					t.Errorf("forcing controller not restored: KF=%d Eps=%g", f.KF, f.Eps)
				}
			}
		})
	}
}
