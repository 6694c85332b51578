package repro_test

import (
	"testing"

	"repro/internal/exchange"
	"repro/internal/pfft"
	"repro/internal/spectral"
	"repro/internal/tuning"
)

// FuzzParse drives every flag-value parser of a run description with any
// string: exchange.Parse, spectral.ParseScheme, pfft.ParseGranularity and
// tuning.ParseDecomp. No input panics; an accepted strategy or
// decomposition parses back from its String() to itself; a strategy, a
// scheme or a granularity is accepted exactly when it is spelled as one
// of its documented names, and maps to that name's value (so "staged",
// the retired strategy, is refused). The seed corpus is
// testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	strategies := map[string]exchange.Strategy{
		"": exchange.Auto, "auto": exchange.Auto,
		"fused":   exchange.Fused,
		"chunked": exchange.ChunkedFused, "chunked-fused": exchange.ChunkedFused, "chunkedfused": exchange.ChunkedFused,
		"at": exchange.AT, "asynchrony-tolerant": exchange.AT,
	}
	schemes := map[string]spectral.Scheme{"rk2": spectral.RK2, "rk4": spectral.RK4}
	grans := map[string]pfft.Granularity{"pencil": pfft.PerPencil, "slab": pfft.PerSlab}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := exchange.Parse(s)
		if want, ok := strategies[s]; ok != (err == nil) || ok && v != want {
			t.Fatalf("exchange.Parse(%q) = %v, %v; documented: %v", s, v, err, ok)
		}
		if err == nil {
			if back, err := exchange.Parse(v.String()); err != nil || back != v {
				t.Fatalf("exchange.Parse(%q) = %v, but Parse(%q) = %v, %v", s, v, v.String(), back, err)
			}
		}
		if d, err := tuning.ParseDecomp(s); err == nil {
			if back, err := tuning.ParseDecomp(d.String()); err != nil || back != d {
				t.Fatalf("tuning.ParseDecomp(%q) = %v, but ParseDecomp(%q) = %v, %v", s, d, d.String(), back, err)
			}
		}
		sc, err := spectral.ParseScheme(s)
		if want, ok := schemes[s]; ok != (err == nil) || ok && sc != want {
			t.Fatalf("spectral.ParseScheme(%q) = %v, %v; documented: %v", s, sc, err, ok)
		}
		g, err := pfft.ParseGranularity(s)
		if want, ok := grans[s]; ok != (err == nil) || ok && g != want {
			t.Fatalf("pfft.ParseGranularity(%q) = %v, %v; documented: %v", s, g, err, ok)
		}
	})
}
