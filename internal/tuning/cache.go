package tuning

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/exchange"
	"repro/internal/mpi"
)

// SchemaVersion is the tuning-cache file schema. A file carrying any
// other version is ignored wholesale (treated as all-miss and rewritten
// on the next Store), so a decision recorded under different semantics
// — up to schema 2, timed under barriers that always parked, which
// shifts every trial that exchanges; up to schema 3, a slab point
// without the slab's one plane group and one exchange per slab — is
// never replayed.
const SchemaVersion = 4

// DefaultDir is where tuned constructors persist their winners unless
// pointed elsewhere.
const DefaultDir = "artifacts/cache"

// Key identifies one tuning decision: the engine that searched, the
// problem and world geometry, and the machine the trials ran on.
// Anything that can shift the trial timings must be in the key.
type Key struct {
	// Engine names the tuned constructor ("slab" or "async") — the two
	// engines search different sub-spaces, so their winners must never
	// substitute for each other.
	Engine string `json:"engine"`
	// N is the transform size, P the world size.
	N int `json:"n"`
	P int `json:"p"`
	// Maxprocs is runtime.GOMAXPROCS(0) at trial time: the in-process
	// ranks and worker teams share one scheduler, so the winning
	// overlap strategy shifts with the processor budget.
	Maxprocs int `json:"maxprocs"`
	// Machine is hw.Fingerprint() at trial time.
	Machine string `json:"machine"`
}

type cacheEntry struct {
	Key Key `json:"key"`
	// Point is the winning configuration.
	Point Point `json:"point"`
	// CostSeconds is the winner's max-over-ranks trial time, recorded
	// for EXPERIMENTS-style inspection; it plays no part in lookups.
	CostSeconds float64 `json:"cost_seconds"`
}

type cacheFile struct {
	Schema  int          `json:"schema"`
	Entries []cacheEntry `json:"entries"`
}

// Cache is a persistent tuning cache: one JSON file of (Key → Point)
// decisions under a cache directory. Every read error — missing file,
// truncated write, corrupted JSON, foreign schema, a well-formed entry
// whose point no engine could be built from — degrades to a cache
// miss, never an error: the worst a broken cache can do is cost one
// live trial run.
type Cache struct {
	path string
}

// Open returns the cache living in dir (created lazily on the first
// Store). An empty dir means DefaultDir.
func Open(dir string) *Cache {
	if dir == "" {
		dir = DefaultDir
	}
	return &Cache{path: filepath.Join(dir, "tuning.json")}
}

// load reads the cache file, returning an empty file on any error or
// foreign schema.
func (c *Cache) load() cacheFile {
	var f cacheFile
	data, err := os.ReadFile(c.path)
	if err != nil || json.Unmarshal(data, &f) != nil || f.Schema != SchemaVersion {
		return cacheFile{Schema: SchemaVersion}
	}
	return f
}

// Lookup returns the persisted winner for key, if any. An entry whose
// point is out of range for the key is a miss: the file is input from
// outside the program, and a tuned constructor replays a hit without
// trials, so nothing downstream would catch it.
func (c *Cache) Lookup(key Key) (Point, bool) {
	if c == nil {
		return Point{}, false
	}
	for _, e := range c.load().Entries {
		if e.Key == key {
			return e.Point, e.Point.validFor(key)
		}
	}
	return Point{}, false
}

// validFor reports whether an engine keyed by key can be constructed
// from pt: concrete strategies in both directions, a worker team, a
// decomposition that lays out N over P, and — for the batched engine,
// the only one with pencils — a pencil count the slab can be cut into.
func (pt Point) validFor(key Key) bool {
	ok := slices.Contains(exchange.Concrete, pt.Strategy) &&
		slices.Contains(exchange.Concrete, pt.StrategyZY) &&
		pt.Workers >= 1 && pt.Decomp().Valid(key.N, key.P)
	if key.Engine == "async" {
		ok = ok && pt.NP >= 1 && pt.NP <= key.N/2+1
	}
	return ok
}

// Store persists pt as the winner for key, replacing any previous
// entry for the same key. The write is atomic (temp file + rename) so
// a crash mid-store leaves the previous cache intact, and failures are
// silently dropped — persisting is an optimization, not a contract.
func (c *Cache) Store(key Key, pt Point, cost float64) {
	if c == nil {
		return
	}
	f := c.load()
	kept := f.Entries[:0]
	for _, e := range f.Entries {
		if e.Key != key {
			kept = append(kept, e)
		}
	}
	f.Entries = append(kept, cacheEntry{Key: key, Point: pt, CostSeconds: cost})
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return
	}
	dir := filepath.Dir(c.path)
	if os.MkdirAll(dir, 0o755) != nil {
		return
	}
	tmp, err := os.CreateTemp(dir, "tuning-*.json")
	if err != nil {
		return
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if tmp.Close() != nil {
		os.Remove(tmp.Name())
		return
	}
	if os.Rename(tmp.Name(), c.path) != nil {
		os.Remove(tmp.Name())
	}
}

// --- collective cache protocol ------------------------------------------

// Point broadcast encoding: [hit, strategyYZ, strategyZY, perSlab,
// np, workers, single, pr, pc] as float64 slots through the world's
// Allgather, rank 0's row being authoritative. The in-process ranks
// share one filesystem, but routing every decision through rank 0
// keeps the protocol correct for any transport: ranks never each read
// a file that a concurrent Store might be replacing.
const encLen = 9

func encodePoint(pt Point, hit bool) [encLen]float64 {
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	return [encLen]float64{
		b2f(hit), float64(pt.Strategy), float64(pt.StrategyZY),
		b2f(pt.PerSlab), float64(pt.NP), float64(pt.Workers),
		b2f(pt.Single), float64(pt.Pr), float64(pt.Pc),
	}
}

func decodePoint(enc []float64) (Point, bool) {
	if enc[0] == 0 {
		return Point{}, false
	}
	return Point{
		Strategy:   exchange.Strategy(int(enc[1])),
		StrategyZY: exchange.Strategy(int(enc[2])),
		PerSlab:    enc[3] != 0,
		NP:         int(enc[4]),
		Workers:    int(enc[5]),
		Single:     enc[6] != 0,
		Pr:         int(enc[7]),
		Pc:         int(enc[8]),
	}, true
}

// Lookup consults the cache for key and broadcasts rank 0's answer so
// every rank applies the same decision (or agrees to run live trials).
// Collective; a nil cache (on every rank: a Config is a collective
// argument) is a miss without communication.
func (cfg Config) Lookup(c *mpi.Comm, key Key) (Point, bool) {
	if cfg.Cache == nil {
		return Point{}, false
	}
	var mine [encLen]float64
	if c.Rank() == 0 {
		if pt, ok := cfg.Cache.Lookup(key); ok {
			mine = encodePoint(pt, true)
		}
	}
	all := make([]float64, encLen*c.Size())
	mpi.Allgather(c, mine[:], all)
	return decodePoint(all[:encLen])
}

// Store persists the winning point from rank 0. Not collective — every
// other rank returns immediately.
func (cfg Config) Store(c *mpi.Comm, key Key, pt Point, cost float64) {
	if c.Rank() != 0 {
		return
	}
	cfg.Cache.Store(key, pt, cost)
}
