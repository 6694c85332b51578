package tuning

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/exchange"
)

// FuzzCacheLookup writes arbitrary bytes as the cache file and looks a
// key up in it: the file is input from outside the program, and a hit
// is replayed without trials, so Lookup must never panic and must
// return either a miss or a point an engine keyed by key can be built
// from — concrete strategies, a worker team, a decomposition that lays
// out N over P and, for the batched engine, a pencil count in range —
// and a hit must be the file's entry for that key. The key is the
// program's, not the file's: an even N from 2 to 512, 1 to 64 ranks,
// one of the engine names the tuned constructors use. Seeds are the
// files of cache_test.go — a stored point, each corruption of it — a
// slab point naming the retired strategy 1, and a pencil point on a
// 2×2 grid.
func FuzzCacheLookup(f *testing.F) {
	file := func(key Key, pts ...Point) []byte {
		cf := cacheFile{Schema: SchemaVersion}
		for _, pt := range pts {
			cf.Entries = append(cf.Entries, cacheEntry{Key: key, Point: pt, CostSeconds: 0.5})
		}
		data, _ := json.Marshal(cf)
		return data
	}
	seed := func(data []byte, key Key) {
		f.Add(data, key.Engine, uint16(key.N/2), uint8(key.P-1))
	}
	key := Key{Engine: "async", N: 64, P: 4, Maxprocs: 8, Machine: "fuzz"}
	pt := Point{Strategy: exchange.Fused, StrategyZY: exchange.ChunkedFused, NP: 3, Workers: 2}
	seed(file(key, pt), key)
	for _, edit := range []func(*Point){
		func(p *Point) { p.Workers = 0 },
		func(p *Point) { p.Strategy = exchange.Auto },
		func(p *Point) { p.Strategy = exchange.AT },
		func(p *Point) { p.StrategyZY = 9 },
		func(p *Point) { p.Pr, p.Pc = 2, 4 },
		func(p *Point) { p.NP = 0 },
		func(p *Point) { p.NP = key.N/2 + 2 },
	} {
		bad := pt
		edit(&bad)
		seed(file(key, bad), key)
	}
	good := file(key, pt)
	seed(good[:len(good)/2], key)
	seed([]byte("\x00\xffnot json at all"), key)
	stale, _ := json.Marshal(cacheFile{Schema: SchemaVersion + 1, Entries: []cacheEntry{{Key: key, Point: pt}}})
	seed(stale, key)
	slab := Key{Engine: "slab", N: 64, P: 4, Maxprocs: 8, Machine: "fuzz"}
	seed(file(slab, Point{Strategy: exchange.ChunkedFused, StrategyZY: 1, PerSlab: true, NP: 1, Workers: 2}), slab)
	pencil := Key{Engine: "pencil-2x2", N: 16, P: 4, Maxprocs: 8, Machine: "fuzz"}
	seed(file(pencil, Point{Strategy: exchange.ChunkedFused, StrategyZY: exchange.Fused, Workers: 2, Pr: 2, Pc: 2}), pencil)

	f.Fuzz(func(t *testing.T, data []byte, engine string, half uint16, p uint8) {
		names := []string{"slab", "async", "real", "pencil-2x2"}
		if !slices.Contains(names, engine) {
			engine = names[len(engine)%len(names)]
		}
		key := Key{Engine: engine, N: 2 * (1 + int(half)%256), P: 1 + int(p)%64, Maxprocs: 8, Machine: "fuzz"}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "tuning.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := Open(dir).Lookup(key)
		if !ok {
			return
		}
		concrete := slices.Contains(exchange.Concrete, got.Strategy) && slices.Contains(exchange.Concrete, got.StrategyZY)
		np := key.Engine != "async" || got.NP >= 1 && got.NP <= key.N/2+1
		if !got.validFor(key) || !concrete || got.Workers < 1 || !got.Decomp().Valid(key.N, key.P) || !np {
			t.Fatalf("Lookup(%+v) replayed %+v, which no engine can be built from", key, got)
		}
		var cf cacheFile
		if err := json.Unmarshal(data, &cf); err != nil || cf.Schema != SchemaVersion {
			t.Fatalf("Lookup(%+v) hit %+v in a file that does not parse as schema %d (%v)", key, got, SchemaVersion, err)
		}
		i := slices.IndexFunc(cf.Entries, func(e cacheEntry) bool { return e.Key == key })
		if i < 0 || cf.Entries[i].Point != got {
			t.Fatalf("Lookup(%+v) = %+v, not the file's entry for the key", key, got)
		}
	})
}
