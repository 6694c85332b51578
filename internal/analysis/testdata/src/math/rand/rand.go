// Package rand is a fixture stub standing in for the standard
// library's math/rand: the hotalloc analyzer matches its generator
// constructors by package path and name, and fixtures are loaded
// hermetically from testdata/src.
package rand

type Source interface{ Int63() int64 }

type Rand struct{ src Source }

func New(src Source) *Rand { return &Rand{src: src} }

func NewSource(seed int64) Source { return nil }

func (r *Rand) Float64() float64 { return float64(r.src.Int63()) / (1 << 63) }
