package core

import (
	"math"
	"math/cmplx"
	"strings"
	"sync"
	"testing"

	"repro/internal/mpi"
	"repro/internal/pfft"
	"repro/internal/spectral"
)

// TestDNSOnAsyncPipelineMatchesSync is the end-to-end validation of
// the paper's claim: the full pseudo-spectral Navier–Stokes solver
// produces the same solution whether its 3D transforms run through the
// synchronous reference path or the batched asynchronous GPU pipeline.
func TestDNSOnAsyncPipelineMatchesSync(t *testing.T) {
	n, p := 16, 2

	type result struct {
		uh     []complex128
		energy float64
	}
	var mu sync.Mutex
	results := map[string]result{}

	run := func(label string, gran pfft.Granularity, useAsync bool) {
		mpi.Run(p, func(c *mpi.Comm) {
			opts := []spectral.Option{spectral.WithNu(0.02), spectral.WithScheme(spectral.RK2), spectral.WithDealias(spectral.Dealias23)}
			if useAsync {
				tr := pfft.NewAsyncSlabReal(c, n, pfft.Options{NP: 4, Granularity: gran})
				defer tr.Close()
				opts = append(opts, spectral.WithTransform(tr))
			}
			s := spectral.New(c, n, opts...)
			defer s.Close()
			s.SetRandomIsotropic(3, 0.5, 77)
			for i := 0; i < 3; i++ {
				s.Step(0.004)
			}
			e := s.Energy()
			if c.Rank() == 0 {
				mu.Lock()
				cp := make([]complex128, len(s.Uh[0]))
				copy(cp, s.Uh[0])
				results[label] = result{uh: cp, energy: e}
				mu.Unlock()
			}
		})
	}
	run("sync", pfft.PerSlab, false)
	run("async-pencil", pfft.PerPencil, true)
	run("async-slab", pfft.PerSlab, true)

	ref := results["sync"]
	for _, label := range []string{"async-pencil", "async-slab"} {
		got := results[label]
		if math.Abs(got.energy-ref.energy) > 1e-12*ref.energy {
			t.Errorf("%s: energy %.15g vs sync %.15g", label, got.energy, ref.energy)
		}
		var d float64
		for i := range ref.uh {
			if e := cmplx.Abs(got.uh[i] - ref.uh[i]); e > d {
				d = e
			}
		}
		if d > 1e-9 {
			t.Errorf("%s: max field difference %g after 3 RK2 steps", label, d)
		}
	}
}

// The drivers' enum-valued flags and config strings are rejected with
// the accepted values listed, never mapped to a silent default.
func TestParseEnumsRejectUnknown(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want pfft.Granularity
		ok   bool
	}{{"pencil", pfft.PerPencil, true}, {"slab", pfft.PerSlab, true}, {"pencils", 0, false}, {"", 0, false}} {
		got, err := pfft.ParseGranularity(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("pfft.ParseGranularity(%q) = %v, %v", tc.in, got, err)
		}
		if err != nil && !strings.Contains(err.Error(), "pencil or slab") {
			t.Errorf("pfft.ParseGranularity(%q) error does not list the accepted values: %v", tc.in, err)
		}
	}
	for _, tc := range []struct {
		in   string
		want spectral.Scheme
		ok   bool
	}{{"rk2", spectral.RK2, true}, {"rk4", spectral.RK4, true}, {"rk3", 0, false}, {"", 0, false}} {
		got, err := spectral.ParseScheme(tc.in)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseScheme(%q) = %v, %v", tc.in, got, err)
		}
		if err != nil && !strings.Contains(err.Error(), "rk2 or rk4") {
			t.Errorf("ParseScheme(%q) error does not list the accepted values: %v", tc.in, err)
		}
	}
}
