package grid

import (
	"testing"
	"testing/quick"
)

func TestSlabExtents(t *testing.T) {
	s := NewSlab(12, 4, 2)
	if s.MZ() != 3 || s.MY() != 3 {
		t.Errorf("extents %d %d", s.MZ(), s.MY())
	}
	if s.ZLo() != 6 || s.YLo() != 6 {
		t.Errorf("offsets %d %d", s.ZLo(), s.YLo())
	}
}

func TestSlabOwnership(t *testing.T) {
	s := NewSlab(12, 4, 0)
	for iz := 0; iz < 12; iz++ {
		owner := s.ZOwner(iz)
		so := NewSlab(12, 4, owner)
		if iz < so.ZLo() || iz >= so.ZLo()+so.MZ() {
			t.Errorf("z=%d owner %d does not own it", iz, owner)
		}
	}
}

func TestSlabCoverageIsPartition(t *testing.T) {
	// Property: every global plane is owned by exactly one rank.
	f := func(seed uint8) bool {
		n := 6 * (int(seed%5) + 1)
		p := []int{1, 2, 3, 6}[seed%4]
		count := make([]int, n)
		for r := 0; r < p; r++ {
			s := NewSlab(n, p, r)
			for iz := s.ZLo(); iz < s.ZLo()+s.MZ(); iz++ {
				count[iz]++
			}
		}
		for _, c := range count {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSlabPanicsOnIndivisible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewSlab(10, 3, 0)
}

func TestWavenumberMapping(t *testing.T) {
	n := 8
	want := []int{0, 1, 2, 3, 4, -3, -2, -1}
	for i, w := range want {
		if k := Wavenumber(i, n); k != w {
			t.Errorf("Wavenumber(%d,%d)=%d want %d", i, n, k, w)
		}
	}
}

func TestWavenumberRoundTripProperty(t *testing.T) {
	// Property: the signed wavenumber recovers the storage index mod N.
	f := func(i uint8, nSel uint8) bool {
		n := []int{4, 8, 16, 12}[nSel%4]
		idx := int(i) % n
		k := Wavenumber(idx, n)
		return ((k%n)+n)%n == idx && k >= -n/2+1-1 && k <= n/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// The 2/3 rule as an integer band, the paper's N = 18432 included: k
// is kept exactly when k ≤ N/3.
func TestDealiasKmax(t *testing.T) {
	for _, c := range []struct{ n, kmax int }{{12, 4}, {16, 5}, {48, 16}, {64, 21}, {18432, 6144}} {
		if got := DealiasKmax(c.n); got != c.kmax {
			t.Errorf("DealiasKmax(%d) = %d, want %d", c.n, got, c.kmax)
		}
		for k := 0; k <= c.n/2; k++ {
			if (float64(k) <= float64(c.n)/3) != (k <= c.kmax) {
				t.Errorf("N=%d k=%d: float and integer cutoffs disagree", c.n, k)
			}
		}
	}
}

func TestPaperGeometry18432(t *testing.T) {
	// The paper's production case: N=18432, 3072 nodes, 2 ranks/node ⇒
	// P=6144, mz=3.
	s := NewSlab(18432, 6144, 0)
	if s.MZ() != 3 {
		t.Errorf("mz=%d want 3", s.MZ())
	}
}

func TestDealiasKmaxAndBand(t *testing.T) {
	const n = 16
	for _, kmax := range []int{-3, -1, 8, 9, 100} {
		if b := NewBand(n, kmax); b.Kmax != n/2 {
			t.Errorf("NewBand(%d, %d).Kmax = %d, want the full band %d", n, kmax, b.Kmax, n/2)
		}
	}
	for kmax := 0; kmax <= n/2; kmax++ {
		b := NewBand(n, kmax)
		lo, hi := b.Gap()
		for i := 0; i < n; i++ {
			k := Wavenumber(i, n)
			in := -kmax <= k && k <= kmax
			if b.Has(i) != in {
				t.Errorf("kmax=%d: Has(%d) = %v, |k| = |%d|", kmax, i, b.Has(i), k)
			}
			if (lo <= i && i < hi) == in {
				t.Errorf("kmax=%d: index %d (k=%d) in band %v but gap is [%d,%d)", kmax, i, k, in, lo, hi)
			}
		}
		for xlo := 0; xlo <= n/2+1; xlo++ {
			for xhi := xlo; xhi <= n/2+1; xhi++ {
				want := 0
				for x := xlo; x < xhi; x++ {
					if x <= kmax {
						want++
					}
				}
				if got := b.Width(xlo, xhi); got != want {
					t.Errorf("kmax=%d: Width(%d,%d) = %d, want %d", kmax, xlo, xhi, got, want)
				}
			}
		}
		for lo := 0; lo <= n; lo++ {
			for hi := lo; hi <= n; hi++ {
				want := 0
				for i := lo; i < hi; i++ {
					if b.Has(i) {
						want++
					}
				}
				if got := b.Count(lo, hi); got != want {
					t.Errorf("kmax=%d: Count(%d,%d) = %d, want %d", kmax, lo, hi, got, want)
				}
			}
		}
	}
}
