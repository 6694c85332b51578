package transpose

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: for random geometry, the slab y→z gather followed by its
// reverse restores every rank's slab exactly.
func TestSlabTransposeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(5)
		l := NewSlabLayout(1+rng.Intn(6), (1+rng.Intn(4))*p, 1+rng.Intn(4), p)
		orig := make([][]complex128, p)
		for r := range orig {
			orig[r] = make([]complex128, l.Total)
			for i := range orig[r] {
				orig[r][i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
		back := slabExchange(&l, slabExchange(&l, orig, true), false)
		for r := range back {
			for i := range back[r] {
				if back[r][i] != orig[r][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the row/column pencil transposes are mutual inverses for
// random 2D-decomposition geometry — the row exchange as the slab
// transpose at Nxh := Wc, then the column kernels.
func TestPencilTransposeRoundTripProperty(t *testing.T) {
	row := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 * (1 + rng.Intn(8))
		pr, pc := 1+rng.Intn(n), 1+rng.Intn(n/2+1)
		for n%pr != 0 {
			pr--
		}
		for n%pc != 0 {
			pc--
		}
		_, rl := rowGroup(n, pr, pc, rng.Intn(pc))
		orig := make([][]complex128, pr)
		for r := range orig {
			orig[r] = make([]complex128, rl.Total)
			for i := range orig[r] {
				orig[r][i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
		back := slabExchange(&rl, slabExchange(&rl, orig, false), true)
		for r := range back {
			for i := range back[r] {
				if back[r][i] != orig[r][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(row, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	// The column exchange of the real-transform engine: forward along
	// one path then inverse along another is the identity on X, for
	// random grids whose x split is mostly uneven (Nxh % Pc ≠ 0).
	col := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 * (1 + rng.Intn(10))
		pc := 1 + rng.Intn(n/2+1)
		for n%pc != 0 {
			pc--
		}
		g := newColGroup(n, 1, pc, 0)
		const sentinel = complex(-1, -1)
		b := g.run(true, colPaths[rng.Intn(len(colPaths))], g.x, 0, n, sentinel)
		back := g.run(false, colPaths[rng.Intn(len(colPaths))], b, 0, n, sentinel)
		for zG, l := range g.lays {
			for i := 0; i < l.My*l.Mz*l.Nxh; i++ {
				if back[zG][i] != g.x[zG][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(col, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
