package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/spectral"
	"repro/internal/tuning"
)

// FuzzParse drives every flag-value parser of a run description with any
// string: exchange.Parse, spectral.ParseScheme, core.ParseGranularity and
// tuning.ParseDecomp. No input panics; an accepted strategy or
// decomposition parses back from its String() to itself; a scheme or a
// granularity is accepted exactly when it is spelled as one of its
// documented names, and maps to that name's value. The seed corpus is
// testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	schemes := map[string]spectral.Scheme{"rk2": spectral.RK2, "rk4": spectral.RK4}
	grans := map[string]core.Granularity{"pencil": core.PerPencil, "slab": core.PerSlab}
	f.Fuzz(func(t *testing.T, s string) {
		if v, err := exchange.Parse(s); err == nil {
			if back, err := exchange.Parse(v.String()); err != nil || back != v {
				t.Fatalf("exchange.Parse(%q) = %v, but Parse(%q) = %v, %v", s, v, v.String(), back, err)
			}
		}
		if d, err := tuning.ParseDecomp(s); err == nil {
			if back, err := tuning.ParseDecomp(d.String()); err != nil || back != d {
				t.Fatalf("tuning.ParseDecomp(%q) = %v, but ParseDecomp(%q) = %v, %v", s, d, d.String(), back, err)
			}
		}
		v, err := spectral.ParseScheme(s)
		if want, ok := schemes[s]; ok != (err == nil) || ok && v != want {
			t.Fatalf("spectral.ParseScheme(%q) = %v, %v; documented: %v", s, v, err, ok)
		}
		g, err := core.ParseGranularity(s)
		if want, ok := grans[s]; ok != (err == nil) || ok && g != want {
			t.Fatalf("core.ParseGranularity(%q) = %v, %v; documented: %v", s, g, err, ok)
		}
	})
}
