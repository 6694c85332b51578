package tuning

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exchange"
)

func TestDecompParseString(t *testing.T) {
	cases := []struct {
		in   string
		want Decomp
	}{
		{"slab", DecompSlab},
		{"SLAB", DecompSlab},
		{"auto", DecompAuto},
		{"2x4", Pencil(2, 4)},
		{"16X2", Pencil(16, 2)},
		{" 4x8 ", Pencil(4, 8)},
	}
	for _, c := range cases {
		got, err := ParseDecomp(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseDecomp(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		back, err := ParseDecomp(got.String())
		if err != nil || back != got {
			t.Fatalf("String/Parse roundtrip for %v failed: %v, %v", got, back, err)
		}
	}
	for _, bad := range []string{"", "pencil", "0x4", "2x-1", "2x", "x4", "2x4x8"} {
		if d, err := ParseDecomp(bad); err == nil {
			t.Fatalf("ParseDecomp(%q) = %v, want error", bad, d)
		}
	}
}

func TestDecompValid(t *testing.T) {
	cases := []struct {
		d    Decomp
		n, p int
		want bool
	}{
		{DecompSlab, 16, 4, true},
		{DecompSlab, 16, 32, false},  // slab wall: P > N
		{DecompSlab, 12, 5, false},   // p must divide n
		{Pencil(4, 8), 16, 32, true}, // past the slab wall
		{Pencil(8, 4), 16, 32, true},
		{Pencil(16, 2), 16, 32, true},
		{Pencil(2, 16), 16, 32, false}, // pc > n/2+1: empty x spans
		{Pencil(2, 4), 16, 8, true},
		{Pencil(2, 4), 16, 16, false}, // pr*pc != p
		{Pencil(3, 2), 16, 6, false},  // pr must divide n
		{Pencil(2, 3), 12, 6, true},
		{DecompAuto, 16, 4, false}, // auto is a request, not a layout
	}
	for _, c := range cases {
		if got := c.d.Valid(c.n, c.p); got != c.want {
			t.Fatalf("%v.Valid(%d, %d) = %v, want %v", c.d, c.n, c.p, got, c.want)
		}
	}
}

func TestDecompositionsEnumeration(t *testing.T) {
	// P ≤ N with p | n: slab first, then pencils ascending in Pr. The
	// 8×1 grid is the slab's engine, so it is not listed a second time.
	got := Decompositions(16, 8)
	want := []Decomp{DecompSlab, Pencil(1, 8), Pencil(2, 4), Pencil(4, 2)}
	if len(got) != len(want) {
		t.Fatalf("Decompositions(16, 8) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Decompositions(16, 8)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// P > N: no slab; (2,16) is excluded (x-span would be empty) and
	// (32,1) is excluded (32 does not divide 16).
	got = Decompositions(16, 32)
	want = []Decomp{Pencil(4, 8), Pencil(8, 4), Pencil(16, 2)}
	if len(got) != len(want) {
		t.Fatalf("Decompositions(16, 32) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Decompositions(16, 32)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	for _, d := range got {
		if !d.Valid(16, 32) {
			t.Fatalf("enumerated decomposition %v is not valid", d)
		}
	}
	// Two ranks: slab and 1×2 only. An explicit 2×1 stays a valid
	// request — exactly when slab is.
	got = Decompositions(64, 2)
	if len(got) != 2 || got[0] != DecompSlab || got[1] != Pencil(1, 2) {
		t.Fatalf("Decompositions(64, 2) = %v, want [slab 1x2]", got)
	}
	for _, c := range [][2]int{{64, 2}, {16, 8}, {12, 5}, {16, 32}} {
		if n, p := c[0], c[1]; Pencil(p, 1).Valid(n, p) != DecompSlab.Valid(n, p) {
			t.Fatalf("N=%d P=%d: %dx1 validity differs from slab's", n, p, p)
		}
	}
}

// Cache files of an earlier schema read as all-miss — schema 1 lacks the
// per-direction strategies and the decomposition, and both it and
// schema 2 hold winners timed under barriers that always parked — and
// the next Store rewrites the file at the current schema.
func TestCacheSchema1Fallback(t *testing.T) {
	key := testKey()
	for _, schema := range []int{1, 2} {
		dir := t.TempDir()
		old := map[string]any{
			"schema": schema,
			"entries": []map[string]any{{
				"key": key,
				"point": map[string]any{
					"strategy":    int(exchange.Fused),
					"strategy_zy": int(exchange.Fused),
					"per_slab":    true,
					"np":          3,
					"workers":     2,
					"single":      false,
				},
				"cost_seconds": 0.5,
			}},
		}
		data, err := json.Marshal(old)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "tuning.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := Open(dir).Lookup(key); ok {
			t.Fatalf("schema-%d cache hit with %+v; want a miss", schema, got)
		}
		pt := Point{Strategy: exchange.Fused, StrategyZY: exchange.ChunkedFused, Workers: 1}
		Open(dir).Store(key, pt, 0.1)
		data, err = os.ReadFile(filepath.Join(dir, "tuning.json"))
		if err != nil {
			t.Fatal(err)
		}
		var f cacheFile
		if err := json.Unmarshal(data, &f); err != nil {
			t.Fatal(err)
		}
		if f.Schema != SchemaVersion || len(f.Entries) != 1 {
			t.Fatalf("after a store on a schema-%d file: schema %d with %d entries, want schema %d with 1",
				schema, f.Schema, len(f.Entries), SchemaVersion)
		}
		if got, ok := Open(dir).Lookup(key); !ok || got != pt {
			t.Fatalf("new entry = %+v ok=%v, want %+v", got, ok, pt)
		}
	}
}

// A pencil point survives the cache and the collective encoding.
func TestCachePencilPointRoundtrip(t *testing.T) {
	dir := t.TempDir()
	key := testKey()
	key.P = 32
	pt := Point{
		Strategy: exchange.Fused, StrategyZY: exchange.ChunkedFused,
		Workers: 2, Pr: 4, Pc: 8,
	}
	Open(dir).Store(key, pt, 0.2)
	got, ok := Open(dir).Lookup(key)
	if !ok || got != pt {
		t.Fatalf("lookup = %+v ok=%v, want %+v", got, ok, pt)
	}
	enc := encodePoint(pt, true)
	dec, ok := decodePoint(enc[:])
	if !ok || dec != pt {
		t.Fatalf("encode/decode = %+v ok=%v, want %+v", dec, ok, pt)
	}
}
