package tuning

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exchange"
	"repro/internal/mpi"
)

func testKey() Key {
	return Key{Engine: "slab", N: 64, P: 4, Maxprocs: 8, Machine: "linux-amd64-c8"}
}

func TestCacheRoundtrip(t *testing.T) {
	dir := t.TempDir()
	c := Open(dir)
	key := testKey()
	if _, ok := c.Lookup(key); ok {
		t.Fatal("lookup hit on an empty cache")
	}
	pt := Point{Strategy: exchange.ChunkedFused, StrategyZY: exchange.Fused, PerSlab: true, NP: 3, Workers: 2, Single: true}
	c.Store(key, pt, 0.25)
	// A fresh handle must see the persisted decision through the file.
	got, ok := Open(dir).Lookup(key)
	if !ok {
		t.Fatal("lookup miss after store")
	}
	if got != pt {
		t.Fatalf("lookup = %+v, want %+v", got, pt)
	}
	// Any key component changing is a different decision.
	for _, k := range []Key{
		{Engine: "async", N: 64, P: 4, Maxprocs: 8, Machine: "linux-amd64-c8"},
		{Engine: "slab", N: 128, P: 4, Maxprocs: 8, Machine: "linux-amd64-c8"},
		{Engine: "slab", N: 64, P: 2, Maxprocs: 8, Machine: "linux-amd64-c8"},
		{Engine: "slab", N: 64, P: 4, Maxprocs: 4, Machine: "linux-amd64-c8"},
		{Engine: "slab", N: 64, P: 4, Maxprocs: 8, Machine: "other-c16"},
	} {
		if _, ok := Open(dir).Lookup(k); ok {
			t.Fatalf("lookup hit for foreign key %+v", k)
		}
	}
}

func TestCacheReplacesSameKey(t *testing.T) {
	dir := t.TempDir()
	c := Open(dir)
	key := testKey()
	c.Store(key, Point{Strategy: exchange.ChunkedFused, StrategyZY: exchange.ChunkedFused, Workers: 1}, 1.0)
	c.Store(key, Point{Strategy: exchange.Fused, StrategyZY: exchange.Fused, Workers: 2}, 0.5)
	got, ok := c.Lookup(key)
	if !ok || got.Strategy != exchange.Fused || got.Workers != 2 {
		t.Fatalf("lookup = %+v ok=%v, want the replacing entry", got, ok)
	}
	data, err := os.ReadFile(filepath.Join(dir, "tuning.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f cacheFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Entries) != 1 {
		t.Fatalf("file holds %d entries for one key, want 1", len(f.Entries))
	}
}

// Every way a cache file can be unreadable — or readable but holding a
// point no engine could be built from — must degrade to a miss, and
// the next Store must recover the file.
func TestCacheCorruptionDegradesToMiss(t *testing.T) {
	// The async key has every range check a point can fail, NP included.
	key := testKey()
	key.Engine = "async"
	pt := Point{Strategy: exchange.Fused, StrategyZY: exchange.ChunkedFused, NP: 3, Workers: 2}
	// rewrite replaces the stored point of a well-formed file.
	rewrite := func(edit func(*Point)) func(path string) {
		return func(path string) {
			data, _ := os.ReadFile(path)
			var f cacheFile
			json.Unmarshal(data, &f)
			edit(&f.Entries[0].Point)
			out, _ := json.Marshal(f)
			os.WriteFile(path, out, 0o644)
		}
	}
	cases := map[string]func(path string){
		"workers_zero":     rewrite(func(p *Point) { p.Workers = 0 }),
		"strategy_auto":    rewrite(func(p *Point) { p.Strategy = exchange.Auto }),
		"strategy_at":      rewrite(func(p *Point) { p.Strategy = exchange.AT }),
		"strategy_zy_junk": rewrite(func(p *Point) { p.StrategyZY = 9 }),
		"grid_not_p":       rewrite(func(p *Point) { p.Pr, p.Pc = 2, 4 }),
		"np_zero":          rewrite(func(p *Point) { p.NP = 0 }),
		"np_past_nxh":      rewrite(func(p *Point) { p.NP = key.N/2 + 2 }),
		"garbage": func(path string) {
			os.WriteFile(path, []byte("\x00\xffnot json at all"), 0o644)
		},
		"truncated": func(path string) {
			data, _ := os.ReadFile(path)
			os.WriteFile(path, data[:len(data)/2], 0o644)
		},
		"stale_schema": func(path string) {
			data, _ := os.ReadFile(path)
			var f cacheFile
			json.Unmarshal(data, &f)
			f.Schema = SchemaVersion + 1
			out, _ := json.Marshal(f)
			os.WriteFile(path, out, 0o644)
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c := Open(dir)
			c.Store(key, pt, 0.5)
			if _, ok := c.Lookup(key); !ok {
				t.Fatal("lookup miss before corruption")
			}
			corrupt(filepath.Join(dir, "tuning.json"))
			if got, ok := c.Lookup(key); ok {
				t.Fatalf("corrupted cache replayed %+v; want a miss", got)
			}
			// Store on top of the broken file rewrites it cleanly.
			c.Store(key, pt, 0.5)
			if got, ok := c.Lookup(key); !ok || got != pt {
				t.Fatalf("lookup after recovering store = %+v ok=%v", got, ok)
			}
		})
	}
}

func TestNilCacheIsAlwaysMiss(t *testing.T) {
	var c *Cache
	if _, ok := c.Lookup(testKey()); ok {
		t.Fatal("nil cache hit")
	}
	c.Store(testKey(), Point{}, 0) // must not panic
}

// The zero space searches exactly the concrete strategies per
// direction at the engine defaults, yz strategies varying fastest,
// Fused/Fused first — the ordering the resolve tie-break depends on.
func TestSpacePointsDefaultsAndOrder(t *testing.T) {
	var s Space
	pts := s.Points(3, 2)
	nc := len(exchange.Concrete)
	if len(pts) != nc*nc {
		t.Fatalf("default space has %d points, want %d", len(pts), nc*nc)
	}
	for i, pt := range pts {
		want := Point{
			Strategy:   exchange.Concrete[i%nc],
			StrategyZY: exchange.Concrete[i/nc],
			NP:         3, Workers: 2,
		}
		if pt != want {
			t.Fatalf("point %d = %+v, want %+v", i, pt, want)
		}
	}

	s = Space{
		Strategies:   []exchange.Strategy{exchange.Fused, exchange.ChunkedFused},
		StrategiesZY: []exchange.Strategy{exchange.ChunkedFused},
		PerSlab:      []bool{true, false},
		Workers:      []int{1, 4},
	}
	pts = s.Points(3, 2)
	if len(pts) != 8 {
		t.Fatalf("got %d points, want 8", len(pts))
	}
	// YZ strategy varies fastest, then PerSlab, then Workers.
	want := []Point{
		{Strategy: exchange.Fused, PerSlab: true, NP: 3, Workers: 1},
		{Strategy: exchange.ChunkedFused, PerSlab: true, NP: 3, Workers: 1},
		{Strategy: exchange.Fused, PerSlab: false, NP: 3, Workers: 1},
		{Strategy: exchange.ChunkedFused, PerSlab: false, NP: 3, Workers: 1},
		{Strategy: exchange.Fused, PerSlab: true, NP: 3, Workers: 4},
		{Strategy: exchange.ChunkedFused, PerSlab: true, NP: 3, Workers: 4},
		{Strategy: exchange.Fused, PerSlab: false, NP: 3, Workers: 4},
		{Strategy: exchange.ChunkedFused, PerSlab: false, NP: 3, Workers: 4},
	}
	for i := range want {
		w := want[i]
		w.StrategyZY = exchange.ChunkedFused
		if pts[i] != w {
			t.Fatalf("point %d = %+v, want %+v", i, pts[i], w)
		}
	}

	// A decomposition axis multiplies the space, slab points first.
	s = Space{
		Strategies: []exchange.Strategy{exchange.Fused},
		Decomps:    []Decomp{DecompSlab, Pencil(2, 4)},
	}
	pts = s.Points(3, 2)
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if !pts[0].Decomp().IsSlab() || pts[1].Decomp() != Pencil(2, 4) {
		t.Fatalf("decomp order = %v, %v; want slab, 2x4", pts[0].Decomp(), pts[1].Decomp())
	}
}

// The collective lookup must return rank 0's decision on every rank,
// and count zero trials for a warm hit.
func TestCollectiveLookupBroadcastsRank0(t *testing.T) {
	const p = 4
	dir := t.TempDir()
	key := testKey()
	key.P = p
	pt := Point{Strategy: exchange.ChunkedFused, StrategyZY: exchange.Fused, NP: 2, Workers: 3}
	Open(dir).Store(key, pt, 0.1)
	cfg := Config{Cache: Open(dir)}
	if err := mpi.TryRun(p, func(c *mpi.Comm) {
		got, ok := cfg.Lookup(c, key)
		if !ok {
			panic(fmt.Sprintf("rank %d: warm lookup missed", c.Rank()))
		}
		if got != pt {
			panic(fmt.Sprintf("rank %d: lookup = %+v, want %+v", c.Rank(), got, pt))
		}
		miss := key
		miss.N = 999
		if _, ok := cfg.Lookup(c, miss); ok {
			panic(fmt.Sprintf("rank %d: cold lookup hit", c.Rank()))
		}
	}); err != nil {
		t.Fatal(err)
	}
}
