package pfft

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exchange"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/tuning"
)

// pencilField is the deterministic global test field, computable
// pointwise from global coordinates so every decomposition fills
// bitwise-identical local pencils.
func pencilField(n, gx, gy, gz int) float64 {
	return math.Sin(0.7*float64((gy*n+gz)*n+gx) + 0.3)
}

// slabGlobalReference computes the global forward spectrum and the
// global inverse output of the slab engine at P=1 — the bitwise
// reference every pencil grid must reproduce. Spectrum is indexed
// (gz·N + gy)·Nxh + gx, physical output (gy·N + gz)·N + gx.
func slabGlobalReference(t *testing.T, n int) (refFour []complex128, refPhys []float64) {
	t.Helper()
	var mu sync.Mutex
	if err := mpi.TryRun(1, func(c *mpi.Comm) {
		f := NewSlabRealStrategy(c, n, 1, exchange.Auto)
		defer f.Close()
		phys := make([]float64, f.PhysicalLen())
		for iy := 0; iy < n; iy++ {
			for iz := 0; iz < n; iz++ {
				for ix := 0; ix < n; ix++ {
					phys[(iy*n+iz)*n+ix] = pencilField(n, ix, iy, iz)
				}
			}
		}
		four := make([]complex128, f.FourierLen())
		f.PhysicalToFourier(four, phys)
		// The inverse consumes four as scratch: snapshot it first.
		snap := append([]complex128(nil), four...)
		out := make([]float64, f.PhysicalLen())
		f.FourierToPhysical(out, four)
		mu.Lock()
		refFour = snap
		refPhys = append([]float64(nil), out...)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	return refFour, refPhys
}

// checkPencilMatchesSlab runs the pencil engine on a pr×pc grid and
// compares every local element of the forward spectrum and of the
// inverse output bitwise against the slab reference.
func checkPencilMatchesSlab(t *testing.T, n, pr, pc, workers int, pair exchange.Pair, refFour []complex128, refPhys []float64) {
	t.Helper()
	tag := fmt.Sprintf("%dx%d workers=%d pair=%s/%s", pr, pc, workers, pair.YZ, pair.ZY)
	checkMatchesSlab(t, tag, n, pr*pc, func(c *mpi.Comm) *SlabReal {
		row, col := c.CartGrid(pr, pc)
		return NewPencilReal(col, row, n, workers, pair)
	}, refFour, refPhys)
}

// checkMatchesSlab runs build's engine on p ranks and compares every
// local element of the forward spectrum and of the inverse output
// bitwise against the slab reference.
func checkMatchesSlab(t *testing.T, tag string, n, p int, build func(c *mpi.Comm) *SlabReal, refFour []complex128, refPhys []float64) {
	t.Helper()
	if err := mpi.TryRun(p, func(c *mpi.Comm) {
		f := build(c)
		defer f.Close()
		l := testLayout(f)
		phys := make([]float64, f.PhysicalLen())
		for iy := 0; iy < l.My; iy++ {
			for iz := 0; iz < l.Mz; iz++ {
				for ix := 0; ix < n; ix++ {
					phys[(iy*l.Mz+iz)*n+ix] =
						pencilField(n, ix, l.YRank*l.My+iy, l.ZRank*l.Mz+iz)
				}
			}
		}
		four := make([]complex128, f.FourierLen())
		f.PhysicalToFourier(four, phys)
		for iz := 0; iz < l.Mz2; iz++ {
			gz := l.YRank*l.Mz2 + iz
			for ix := 0; ix < l.Wc; ix++ {
				gx := l.XLo + ix
				for gy := 0; gy < n; gy++ {
					got := four[(iz*n+gy)*l.Wc+ix]
					want := refFour[(gz*n+gy)*l.Nxh+gx]
					if got != want {
						panic(fmt.Sprintf("%s rank %d: forward differs from slab at k=(%d,%d,%d): %v vs %v",
							tag, c.Rank(), gx, gy, gz, got, want))
					}
				}
			}
		}
		out := make([]float64, f.PhysicalLen())
		f.FourierToPhysical(out, four)
		for iy := 0; iy < l.My; iy++ {
			gy := l.YRank*l.My + iy
			for iz := 0; iz < l.Mz; iz++ {
				gz := l.ZRank*l.Mz + iz
				for ix := 0; ix < n; ix++ {
					got := out[(iy*l.Mz+iz)*n+ix]
					want := refPhys[(gy*n+gz)*n+ix]
					if got != want {
						panic(fmt.Sprintf("%s rank %d: inverse differs from slab at (%d,%d,%d): %v vs %v",
							tag, c.Rank(), ix, gy, gz, got, want))
					}
				}
			}
		}
	}); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
}

// grids lists every valid Pr×Pc grid of an n³ field on p ranks, the
// slab as its P×1 grid (tuning.Decompositions lists that engine once,
// as slab).
func grids(n, p int) []tuning.Decomp {
	ds := tuning.Decompositions(n, p)
	for i, d := range ds {
		if d.IsSlab() {
			ds[i] = tuning.Pencil(p, 1)
		}
	}
	return ds
}

// Every grid agrees bit for bit: the engine built by NewPencilReal on
// every Pr×Pc factorization of every rank count (P×1 included), every
// worker-team size and both exchange-strategy families — forward and
// inverse — reproduces the slab at P = 1, and so does the slab on P
// ranks as the batched pipeline, and the 2×2 grid as the batched
// pipeline on two devices. The per-axis FFT order (x, z, y forward; y,
// z, x inverse) is the same on every grid, and the fft batches are
// stride-invariant, so this is exact equality, not a tolerance.
func TestPencilSlabBitwiseIdentity(t *testing.T) {
	const n = 16
	refFour, refPhys := slabGlobalReference(t, n)
	pairs := []exchange.Pair{
		exchange.Both(exchange.Staged),
		{YZ: exchange.ChunkedFused, ZY: exchange.Fused},
	}
	for _, p := range []int{1, 2, 4, 8} {
		for _, workers := range []int{1, 4} {
			for _, pair := range pairs {
				for _, d := range grids(n, p) {
					checkPencilMatchesSlab(t, n, d.Pr, d.Pc, workers, pair, refFour, refPhys)
				}
				for _, opt := range []Options{
					{NP: 1, Granularity: PerSlab, Workers: workers},
					{NP: 3, Granularity: PerPencil, NGPU: 2, Workers: workers},
				} {
					checkMatchesSlab(t, fmt.Sprintf("P=%d slab %+v pair=%s", p, opt, pair), n, p, func(c *mpi.Comm) *SlabReal {
						return newSlabReal(c, nil, n, opt, pair)
					}, refFour, refPhys)
				}
				if p == 4 {
					opt := Options{NP: 3, Granularity: PerPencil, NGPU: 2, Workers: workers}
					checkMatchesSlab(t, fmt.Sprintf("2x2 %+v pair=%s", opt, pair), n, p, func(c *mpi.Comm) *SlabReal {
						row, col := c.CartGrid(2, 2)
						return newSlabReal(col, row, n, opt, pair)
					}, refFour, refPhys)
				}
			}
		}
	}
}

// Past the slab scaling wall — more ranks than planes — the pencil
// grids are the only valid layouts, and they must still reproduce the
// slab result bitwise. N=16 on 32 ranks is the ISSUE acceptance
// geometry.
func TestPencilPastSlabWallBitwiseIdentity(t *testing.T) {
	const n, p = 16, 32
	if len(tuning.Decompositions(n, p)) == 0 || tuning.DecompSlab.Valid(n, p) {
		t.Fatalf("want pencil-only decompositions at N=%d P=%d", n, p)
	}
	refFour, refPhys := slabGlobalReference(t, n)
	for _, d := range []tuning.Decomp{tuning.Pencil(4, 8), tuning.Pencil(16, 2)} {
		checkPencilMatchesSlab(t, n, d.Pr, d.Pc, 2,
			exchange.Both(exchange.ChunkedFused), refFour, refPhys)
	}
}

// The pencil steady state must stay allocation-free like every slab
// strategy: plans, batches, bodies and staging buffers are all built
// at construction.
func TestPencilRealSteadyStateZeroAllocs(t *testing.T) {
	const n, runs = 32, 10
	for _, pair := range []exchange.Pair{
		exchange.Both(exchange.Staged),
		exchange.Both(exchange.ChunkedFused),
	} {
		if err := mpi.TryRun(4, func(c *mpi.Comm) {
			row, col := c.CartGrid(2, 2)
			f := NewPencilReal(col, row, n, 2, pair)
			defer f.Close()
			four := make([]complex128, f.FourierLen())
			phys := make([]float64, f.PhysicalLen())
			for i := range phys {
				phys[i] = float64(i%13) * 0.25
			}
			cycle := func() {
				f.PhysicalToFourier(four, phys)
				f.FourierToPhysical(phys, four)
			}
			// Full, then the 2/3 band (the second column's ranks keep
			// one in-band column of their 8).
			for _, kmax := range []int{-1, n / 3} {
				f.Truncate(kmax)
				for i := 0; i < 3; i++ {
					cycle()
				}
				var avg float64
				if c.Rank() == 0 {
					avg = testing.AllocsPerRun(runs, cycle)
				} else {
					for i := 0; i < runs+1; i++ {
						cycle()
					}
				}
				// Hold the peers until rank 0 has read its counters: what
				// they do next (the next Truncate, Close) allocates.
				c.Barrier()
				if avg != 0 {
					panic(fmt.Sprintf("pencil %s/%s kmax=%d steady state allocates %.2f per cycle",
						pair.YZ, pair.ZY, kmax, avg))
				}
			}
		}); err != nil {
			t.Fatalf("pair %s/%s: %v", pair.YZ, pair.ZY, err)
		}
	}
}

// NewRealTuned with DecompAuto searches slab and every pencil grid; a
// warm cache must reconstruct the winner with zero trial exchanges and
// bitwise-identical output.
func TestRealTunedAutoWarmCacheSkipsTrials(t *testing.T) {
	const n, p = 16, 4
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	reg.SetOn(true)
	if err := mpi.RunWith(p, reg, func(c *mpi.Comm) {
		cfg := tuning.Config{Cache: tuning.Open(dir)}
		trials := c.Metrics().CounterRank("tune.trials", c.Rank())

		cold := NewRealTuned(c, n, 2, tuning.DecompAuto, cfg)
		defer cold.Close()
		after := trials.Value()
		if after == 0 {
			panic(fmt.Sprintf("rank %d: cold auto-decomposition tuning ran no trials", c.Rank()))
		}

		warm := NewRealTuned(c, n, 2, tuning.DecompAuto, cfg)
		defer warm.Close()
		if got := trials.Value(); got != after {
			panic(fmt.Sprintf("rank %d: warm construction ran %d trial exchanges, want 0", c.Rank(), got-after))
		}
		if dw, dc := warm.Decomp(), cold.Decomp(); dw != dc {
			panic(fmt.Sprintf("rank %d: warm engine on %s differs from trial-selected %s", c.Rank(), dw, dc))
		}

		phys := make([]float64, cold.PhysicalLen())
		for i := range phys {
			phys[i] = float64((c.Rank()*31+i)%17) * 0.5
		}
		a := make([]complex128, cold.FourierLen())
		b := make([]complex128, warm.FourierLen())
		scratch := make([]float64, len(phys))
		copy(scratch, phys)
		cold.PhysicalToFourier(a, scratch)
		copy(scratch, phys)
		warm.PhysicalToFourier(b, scratch)
		for i := range a {
			if a[i] != b[i] {
				panic(fmt.Sprintf("rank %d: cache-hit engine differs from trial-selected at %d", c.Rank(), i))
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// An explicit pencil decomposition pins the layout: the tuned
// constructor must return the pencil engine on exactly that grid, cold
// and warm, and reject grids that cannot lay out the field.
func TestRealTunedExplicitPencil(t *testing.T) {
	const n, p = 16, 4
	dir := t.TempDir()
	if err := mpi.TryRun(p, func(c *mpi.Comm) {
		cfg := tuning.Config{Cache: tuning.Open(dir)}
		for _, label := range []string{"cold", "warm"} {
			tr := NewRealTuned(c, n, 1, tuning.Pencil(2, 2), cfg)
			if d := tr.Decomp(); d != tuning.Pencil(2, 2) {
				panic(fmt.Sprintf("rank %d: %s engine on %s, want 2x2", c.Rank(), label, d))
			}
			tr.Close()
		}
	}); err != nil {
		t.Fatal(err)
	}
	err := mpi.TryRun(p, func(c *mpi.Comm) {
		NewRealTuned(c, n, 1, tuning.Pencil(3, 2), tuning.Config{})
	})
	if err == nil || !strings.Contains(err.Error(), "invalid") {
		t.Fatalf("invalid grid error = %v, want decomposition-validity panic", err)
	}
}

// The pencil engine has no asynchrony-tolerant mode; requesting the AT
// strategy must fail loudly at construction, not silently downgrade.
func TestPencilRejectsATStrategy(t *testing.T) {
	err := mpi.TryRun(4, func(c *mpi.Comm) {
		row, col := c.CartGrid(2, 2)
		NewPencilReal(col, row, 16, 1, exchange.Both(exchange.AT))
	})
	if err == nil || !strings.Contains(err.Error(), "asynchrony-tolerant") {
		t.Fatalf("AT construction error = %v, want asynchrony-tolerant rejection", err)
	}
}

// A crash schedule follows a rank into the pencil engine's
// sub-communicator exchanges: the scheduled operation count is reached
// inside a column- or row-group collective, and the abort must surface
// as the typed CrashError naming the world rank on every peer.
func TestPencilCrashInsideSubExchangeSurfacesTyped(t *testing.T) {
	const n, p = 16, 4
	err := mpi.TryRun(p, func(c *mpi.Comm) {
		row, col := c.CartGrid(2, 2)
		f := NewPencilReal(col, row, n, 1, exchange.Both(exchange.Staged))
		defer f.Close()
		four := make([]complex128, f.FourierLen())
		phys := make([]float64, f.PhysicalLen())
		for i := 0; i < 50; i++ {
			f.PhysicalToFourier(four, phys)
			f.FourierToPhysical(phys, four)
		}
	}, mpi.WithWatchdog(mpi.Watchdog{DeadlockAfter: 2 * time.Second, Poll: 5 * time.Millisecond}),
		mpi.WithFaults(&mpi.Faults{Crash: map[int]int{3: 40}}))
	var ce *mpi.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T (%v) is not *mpi.CrashError", err, err)
	}
	var re *mpi.RankError
	if !errors.As(err, &re) || re.Rank != 3 {
		t.Fatalf("error %v does not name world rank 3", err)
	}
}

// A rank that stops participating mid-run deadlocks its peers inside a
// sub-communicator exchange; the inherited watchdog must wake them
// with a typed StallError instead of hanging the test binary.
func TestPencilStallInsideSubExchangeSurfacesTyped(t *testing.T) {
	const n, p = 16, 4
	err := mpi.TryRun(p, func(c *mpi.Comm) {
		row, col := c.CartGrid(2, 2)
		f := NewPencilReal(col, row, n, 1, exchange.Both(exchange.ChunkedFused))
		defer f.Close()
		four := make([]complex128, f.FourierLen())
		phys := make([]float64, f.PhysicalLen())
		f.PhysicalToFourier(four, phys)
		f.FourierToPhysical(phys, four)
		if c.Rank() == 3 {
			return // abandons the second transform; peers block in the exchange
		}
		f.PhysicalToFourier(four, phys)
	}, mpi.WithWatchdog(mpi.Watchdog{DeadlockAfter: 300 * time.Millisecond, Poll: 5 * time.Millisecond}))
	var st *mpi.StallError
	if !errors.As(err, &st) {
		t.Fatalf("error %T (%v) is not *mpi.StallError", err, err)
	}
}
