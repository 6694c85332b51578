package tuning

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/exchange"
	"repro/internal/mpi"
)

func testKey() Key {
	return Key{Engine: "slab", N: 64, P: 4, NP: 3, NGPU: 1, Workers: 2, Maxprocs: 8, Machine: "linux-amd64-c8"}
}

func TestCacheRoundtrip(t *testing.T) {
	dir := t.TempDir()
	c := Open(dir)
	key := testKey()
	if _, ok := c.Lookup(key); ok {
		t.Fatal("lookup hit on an empty cache")
	}
	pt := Point{Strategy: exchange.ChunkedFused, StrategyZY: exchange.Fused}
	c.Store(key, pt, 0.25)
	// A fresh handle must see the persisted decision through the file.
	got, ok := Open(dir).Lookup(key)
	if !ok {
		t.Fatal("lookup miss after store")
	}
	if got != pt {
		t.Fatalf("lookup = %+v, want %+v", got, pt)
	}
	// Any key component changing is a different decision: the engine
	// options included, since they shape every exchange a trial times.
	for _, edit := range []func(*Key){
		func(k *Key) { k.Engine = "real" },
		func(k *Key) { k.N = 128 },
		func(k *Key) { k.P = 2 },
		func(k *Key) { k.NP = 4 },
		func(k *Key) { k.PerSlab = true },
		func(k *Key) { k.NGPU = 2 },
		func(k *Key) { k.Workers = 1 },
		func(k *Key) { k.Single = true },
		func(k *Key) { k.Maxprocs = 4 },
		func(k *Key) { k.Machine = "other-c16" },
	} {
		k := key
		edit(&k)
		if _, ok := Open(dir).Lookup(k); ok {
			t.Fatalf("lookup hit for foreign key %+v", k)
		}
	}
}

func TestCacheReplacesSameKey(t *testing.T) {
	dir := t.TempDir()
	c := Open(dir)
	key := testKey()
	c.Store(key, Point{Strategy: exchange.ChunkedFused, StrategyZY: exchange.ChunkedFused}, 1.0)
	c.Store(key, Point{Strategy: exchange.Fused, StrategyZY: exchange.Fused}, 0.5)
	got, ok := c.Lookup(key)
	if !ok || got.Strategy != exchange.Fused || got.StrategyZY != exchange.Fused {
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
// point no engine could be built from, or an entry whose key no longer
// carries the engine options it was timed under — must degrade to a
// miss, and the next Store must recover the file.
func TestCacheCorruptionDegradesToMiss(t *testing.T) {
	key := testKey()
	pt := Point{Strategy: exchange.Fused, StrategyZY: exchange.ChunkedFused}
	// rewrite edits the stored entry of a well-formed file.
	rewrite := func(edit func(*cacheEntry)) func(path string) {
		return func(path string) {
			data, _ := os.ReadFile(path)
			var f cacheFile
			json.Unmarshal(data, &f)
			edit(&f.Entries[0])
			out, _ := json.Marshal(f)
			os.WriteFile(path, out, 0o644)
		}
	}
	cases := map[string]func(path string){
		"strategy_auto":    rewrite(func(e *cacheEntry) { e.Point.Strategy = exchange.Auto }),
		"strategy_at":      rewrite(func(e *cacheEntry) { e.Point.Strategy = exchange.AT }),
		"strategy_zy_junk": rewrite(func(e *cacheEntry) { e.Point.StrategyZY = 9 }),
		"grid_not_p":       rewrite(func(e *cacheEntry) { e.Point.Pr, e.Point.Pc = 2, 4 }),
		"workers_zero":     rewrite(func(e *cacheEntry) { e.Key.Workers = 0 }),
		"np_zero":          rewrite(func(e *cacheEntry) { e.Key.NP = 0 }),
		"np_past_nxh":      rewrite(func(e *cacheEntry) { e.Key.NP = key.N/2 + 2 }),
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
// direction on the slab, yz strategies varying fastest, Fused/Fused
// first — the ordering the resolve tie-break depends on.
func TestSpacePointsDefaultsAndOrder(t *testing.T) {
	var s Space
	pts := s.Points()
	nc := len(exchange.Concrete)
	if len(pts) != nc*nc {
		t.Fatalf("default space has %d points, want %d", len(pts), nc*nc)
	}
	for i, pt := range pts {
		want := Point{
			Strategy:   exchange.Concrete[i%nc],
			StrategyZY: exchange.Concrete[i/nc],
		}
		if pt != want {
			t.Fatalf("point %d = %+v, want %+v", i, pt, want)
		}
	}

	// A decomposition axis multiplies the space, slab points first and
	// yz strategies varying fastest within each decomposition.
	s = Space{
		Strategies:   []exchange.Strategy{exchange.Fused, exchange.ChunkedFused},
		StrategiesZY: []exchange.Strategy{exchange.ChunkedFused},
		Decomps:      []Decomp{DecompSlab, Pencil(2, 4)},
	}
	pts = s.Points()
	want := []Point{
		{Strategy: exchange.Fused, StrategyZY: exchange.ChunkedFused},
		{Strategy: exchange.ChunkedFused, StrategyZY: exchange.ChunkedFused},
		{Strategy: exchange.Fused, StrategyZY: exchange.ChunkedFused, Pr: 2, Pc: 4},
		{Strategy: exchange.ChunkedFused, StrategyZY: exchange.ChunkedFused, Pr: 2, Pc: 4},
	}
	if !slices.Equal(pts, want) {
		t.Fatalf("points = %+v, want %+v", pts, want)
	}
}

// The collective lookup must return rank 0's decision on every rank,
// and count zero trials for a warm hit.
func TestCollectiveLookupBroadcastsRank0(t *testing.T) {
	const p = 4
	dir := t.TempDir()
	key := testKey()
	key.P = p
	pt := Point{Strategy: exchange.ChunkedFused, StrategyZY: exchange.Fused, Pr: 2, Pc: 2}
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
