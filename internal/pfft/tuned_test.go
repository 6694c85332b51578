package pfft

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/exchange"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/tuning"
)

// The single-precision wire pipeline keeps every FFT in float64 and
// narrows only the transpose-exchange payloads, so a forward transform
// must track the float64 engine to single-precision rounding — well
// under 1e-5 relative rms — and a forward+inverse round trip must
// reproduce the input to the same tolerance.
func TestSlabRealSingleAccuracy(t *testing.T) {
	const n, p = 32, 4
	if err := mpi.TryRun(p, func(c *mpi.Comm) {
		ref := NewSlabRealStrategy(c, n, 2, exchange.Auto)
		defer ref.Close()
		f32 := slabSingle(c, n, 2)
		defer f32.Close()
		if !f32.Single() {
			panic("the SingleComm engine does not report Single()")
		}
		fl, pl := ref.FourierLen(), ref.PhysicalLen()

		rng := rand.New(rand.NewSource(int64(7 + c.Rank())))
		physIn := make([]float64, pl)
		for i := range physIn {
			physIn[i] = rng.NormFloat64()
		}
		refFour := make([]complex128, fl)
		scratch := make([]float64, pl)
		copy(scratch, physIn)
		ref.PhysicalToFourier(refFour, scratch)

		four := make([]complex128, fl)
		copy(scratch, physIn)
		f32.PhysicalToFourier(four, scratch)

		var num, den float64
		for i := range four {
			d := four[i] - refFour[i]
			num += real(d)*real(d) + imag(d)*imag(d)
			den += real(refFour[i])*real(refFour[i]) + imag(refFour[i])*imag(refFour[i])
		}
		if rms := math.Sqrt(num / den); rms > 1e-5 {
			panic(fmt.Sprintf("rank %d: f32 forward relative rms %.3g vs float64, want ≤ 1e-5", c.Rank(), rms))
		}

		out := make([]float64, pl)
		f32.FourierToPhysical(out, four)
		num, den = 0, 0
		for i := range out {
			d := out[i] - physIn[i]
			num += d * d
			den += physIn[i] * physIn[i]
		}
		if rms := math.Sqrt(num / den); rms > 1e-5 {
			panic(fmt.Sprintf("rank %d: f32 round-trip relative rms %.3g, want ≤ 1e-5", c.Rank(), rms))
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// The f32 pipeline's steady state must stay allocation-free like every
// other strategy: the narrow/widen bodies and complex64 plans are all
// prebuilt at construction.
func TestSlabRealSingleSteadyStateZeroAllocs(t *testing.T) {
	const n, p, runs = 32, 4, 10
	if err := mpi.TryRun(p, func(c *mpi.Comm) {
		f := slabSingle(c, n, 2)
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
		c.Barrier() // peers close (and allocate) only after rank 0 has read its counters
		if avg != 0 {
			panic(fmt.Sprintf("f32 steady state allocates %.2f per cycle", avg))
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// Every float64 point of the default tune space is bitwise-identical
// to the plain engine (the tuner may only change the data path), so a
// tuned construction must reproduce the untuned transform exactly,
// whatever winner its trials pick.
func TestSlabRealTunedBitwiseIdentity(t *testing.T) {
	const n, p = 24, 4
	if err := mpi.TryRun(p, func(c *mpi.Comm) {
		ref := NewSlabRealStrategy(c, n, 1, exchange.ChunkedFused)
		defer ref.Close()
		tuned := NewRealTuned(c, n, 2, tuning.DecompSlab, tuning.Config{})
		defer tuned.Close()
		if tuned.Single() {
			panic("default tune space searched precision")
		}
		fl, pl := ref.FourierLen(), ref.PhysicalLen()

		rng := rand.New(rand.NewSource(int64(11 + c.Rank())))
		physIn := make([]float64, pl)
		for i := range physIn {
			physIn[i] = rng.NormFloat64()
		}
		refFour := make([]complex128, fl)
		scratch := make([]float64, pl)
		copy(scratch, physIn)
		ref.PhysicalToFourier(refFour, scratch)

		four := make([]complex128, fl)
		copy(scratch, physIn)
		tuned.PhysicalToFourier(four, scratch)
		for i := range four {
			if four[i] != refFour[i] {
				panic(fmt.Sprintf("rank %d: tuned (winner %s) forward differs at %d",
					c.Rank(), tuned.Strategy(), i))
			}
		}

		refPhys := make([]float64, pl)
		ref.FourierToPhysical(refPhys, refFour)
		out := make([]float64, pl)
		tuned.FourierToPhysical(out, four)
		for i := range out {
			if out[i] != refPhys[i] {
				panic(fmt.Sprintf("rank %d: tuned inverse differs at %d", c.Rank(), i))
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// A warm tuning cache must skip the trials entirely — the tune.trials
// counter stays flat across the second construction — and the engine
// it builds must be bitwise-equivalent to the trial-selected one.
func TestSlabRealTunedWarmCacheSkipsTrials(t *testing.T) {
	const n, p = 24, 4
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	reg.SetOn(true)
	if err := mpi.RunWith(p, reg, func(c *mpi.Comm) {
		cfg := tuning.Config{Cache: tuning.Open(dir)}
		trials := c.Metrics().CounterRank("tune.trials", c.Rank())

		cold := NewRealTuned(c, n, 2, tuning.DecompSlab, cfg)
		defer cold.Close()
		after := trials.Value()
		if after == 0 {
			panic(fmt.Sprintf("rank %d: cold construction ran no trials", c.Rank()))
		}
		if c.Rank() == 0 {
			if _, err := os.Stat(filepath.Join(dir, "tuning.json")); err != nil {
				panic(fmt.Sprintf("tuning cache not persisted: %v", err))
			}
		}

		warm := NewRealTuned(c, n, 2, tuning.DecompSlab, cfg)
		defer warm.Close()
		if got := trials.Value(); got != after {
			panic(fmt.Sprintf("rank %d: warm construction ran %d trial exchanges, want 0", c.Rank(), got-after))
		}
		if warm.Strategy() != cold.Strategy() || warm.Single() != cold.Single() {
			panic(fmt.Sprintf("rank %d: warm engine (%s, single=%v) differs from trial-selected (%s, single=%v)",
				c.Rank(), warm.Strategy(), warm.Single(), cold.Strategy(), cold.Single()))
		}

		// Bitwise equivalence of the cache-hit engine with the
		// trial-selected one.
		fl, pl := cold.FourierLen(), cold.PhysicalLen()
		rng := rand.New(rand.NewSource(int64(13 + c.Rank())))
		physIn := make([]float64, pl)
		for i := range physIn {
			physIn[i] = rng.NormFloat64()
		}
		a, b := make([]complex128, fl), make([]complex128, fl)
		scratch := make([]float64, pl)
		copy(scratch, physIn)
		cold.PhysicalToFourier(a, scratch)
		copy(scratch, physIn)
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

// A corrupted cache file — unreadable, well-formed but holding a point
// out of range for the key, or an entry whose key lost the engine's
// worker team — must fall back to live trials, not crash or replay
// garbage, and leave a valid entry behind.
func TestSlabRealTunedCorruptCacheFallsBack(t *testing.T) {
	const n, p = 24, 2
	// entry renders a schema-current cache file whose one entry, keyed
	// for this run at the given worker-team size, holds the given point
	// fields.
	entry := func(workers int, point string) []byte {
		return []byte(fmt.Sprintf(`{"schema": %d, "entries": [{"key": {"engine": "slab", "n": %d, "p": %d, "np": 1, "per_slab": true, "ngpu": 1, "workers": %d, "single": false, "maxprocs": %d, "machine": %q}, "point": {%s}, "cost_seconds": 1}]}`,
			tuning.SchemaVersion, n, p, workers, runtime.GOMAXPROCS(0), hw.Fingerprint(), point))
	}
	cases := map[string][]byte{
		"garbage":       []byte("\x00 not json"),
		"workers_zero":  entry(0, `"strategy": 2, "strategy_zy": 2`),
		"strategy_auto": entry(1, `"strategy": 0, "strategy_zy": 2`),
		"strategy_junk": entry(1, `"strategy": 4, "strategy_zy": 9`),
		"grid_not_p":    entry(1, `"strategy": 2, "strategy_zy": 2, "pr": 3, "pc": 2`),
		"pencil_point":  entry(1, `"strategy": 2, "strategy_zy": 2, "pr": 1, "pc": 2`),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "tuning.json"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			reg := metrics.NewRegistry()
			reg.SetOn(true)
			if err := mpi.RunWith(p, reg, func(c *mpi.Comm) {
				cfg := tuning.Config{Cache: tuning.Open(dir)}
				trials := c.Metrics().CounterRank("tune.trials", c.Rank())
				f := NewRealTuned(c, n, 1, tuning.DecompSlab, cfg)
				defer f.Close()
				if trials.Value() == 0 {
					panic(fmt.Sprintf("rank %d: corrupt cache did not fall back to live trials", c.Rank()))
				}
				if !slices.Contains(exchange.Concrete, f.Strategy()) || !slices.Contains(exchange.Concrete, f.StrategyZY()) || f.Workers() != 1 {
					panic(fmt.Sprintf("rank %d: rebuilt engine pins %s on %d workers", c.Rank(), f.StrategyPair(), f.Workers()))
				}
				// The trials rewrote the entry: a second construction
				// is a warm hit on it.
				after := trials.Value()
				NewRealTuned(c, n, 1, tuning.DecompSlab, cfg).Close()
				if got := trials.Value(); got != after {
					panic(fmt.Sprintf("rank %d: rewritten entry missed: %d more trials", c.Rank(), got-after))
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A cached pencil point replays, without a trial, as the program at
// np 1, one exchange per slab, one device on exactly its grid and
// strategies, with the worker team of the caller and of the key —
// bit for bit the engine NewPencilReal builds from them.
func TestCachedPencilPointReplaysAsProgram(t *testing.T) {
	const n, p = 16, 4
	dir := t.TempDir()
	data := fmt.Sprintf(`{"schema": %d, "entries": [{"key": {"engine": "pencil-2x2", "n": %d, "p": %d, "np": 1, "per_slab": true, "ngpu": 1, "workers": 2, "single": false, "maxprocs": %d, "machine": %q}, "point": {"strategy": 3, "strategy_zy": 2, "pr": 2, "pc": 2}, "cost_seconds": 1}]}`,
		tuning.SchemaVersion, n, p, runtime.GOMAXPROCS(0), hw.Fingerprint())
	if err := os.WriteFile(filepath.Join(dir, "tuning.json"), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	reg.SetOn(true)
	if err := mpi.RunWith(p, reg, func(c *mpi.Comm) {
		trials := c.Metrics().CounterRank("tune.trials", c.Rank())
		f := NewRealTuned(c, n, 2, tuning.Pencil(2, 2), tuning.Config{Cache: tuning.Open(dir)})
		defer f.Close()
		pair := exchange.Pair{YZ: exchange.ChunkedFused, ZY: exchange.Fused}
		if got := trials.Value(); got != 0 ||
			f.Decomp() != tuning.Pencil(2, 2) || f.StrategyPair() != pair || f.Workers() != 2 ||
			f.NP() != 1 || f.gran != PerSlab || len(f.gpus) != 1 || f.Single() {
			panic(fmt.Sprintf("rank %d: cached point replayed as %s %s workers=%d np=%d gran=%d devices=%d single=%v after %d trials",
				c.Rank(), f.Decomp(), f.StrategyPair(), f.Workers(), f.NP(), f.gran, len(f.gpus), f.Single(), got))
		}
		row, col := c.CartGrid(2, 2)
		ref := NewPencilReal(col, row, n, 2, pair)
		defer ref.Close()
		phys := make([]float64, f.PhysicalLen())
		for i := range phys {
			phys[i] = float64((c.Rank()*31+i)%17) * 0.5
		}
		a, b := make([]complex128, f.FourierLen()), make([]complex128, ref.FourierLen())
		f.PhysicalToFourier(a, phys)
		ref.PhysicalToFourier(b, phys)
		for i := range a {
			if !sameBits(a[i], b[i]) {
				panic(fmt.Sprintf("rank %d: replayed engine differs from NewPencilReal at %d", c.Rank(), i))
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// A warm cache never overrides the caller's options: the options are
// part of the key, so a build under other options tunes its own entry
// and returns exactly the pencil count, granularity, worker team and
// wire precision it was asked for, on the batched engine and on the
// slab alike.
func TestWarmCacheKeepsCallerOptions(t *testing.T) {
	const n, p = 16, 2
	type build struct {
		np, workers int
		gran        Granularity
		single      bool
	}
	for _, tc := range []struct {
		name          string
		first, second build
		slab          bool
	}{
		{"async", build{4, 1, PerPencil, false}, build{2, 2, PerPencil, false}, false},
		{"async_gran_wire", build{2, 1, PerPencil, false}, build{2, 1, PerSlab, true}, false},
		{"slab_workers", build{1, 1, PerSlab, false}, build{1, 2, PerSlab, false}, true},
	} {
		dir := t.TempDir()
		if err := mpi.TryRun(p, func(c *mpi.Comm) {
			cfg := tuning.Config{Cache: tuning.Open(dir)}
			for _, b := range []build{tc.first, tc.second, tc.second} {
				var f *SlabReal
				if tc.slab {
					f = NewRealTuned(c, n, b.workers, tuning.DecompSlab, cfg)
				} else {
					f = NewAsyncSlabRealTuned(c, n, Options{NP: b.np, Granularity: b.gran, Workers: b.workers, SingleComm: b.single}, cfg)
				}
				got := build{f.NP(), f.Workers(), f.gran, f.Single()}
				f.Close()
				if got != b {
					panic(fmt.Sprintf("%s, rank %d: asked for %+v, built %+v", tc.name, c.Rank(), b, got))
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
}
