package simnet

import (
	"fmt"
	"math"
	"testing"
)

// paperTable2 holds the measured values from the paper: P2P size (MB)
// and per-node bandwidth (GB/s) for configurations A, B, C.
var paperTable2 = []struct {
	nodes int
	cfg   string
	p2pMB float64
	bwGBs float64
}{
	{16, "A", 12, 36.5}, {16, "B", 108, 43.1}, {16, "C", 324, 43.6},
	{128, "A", 1.5, 24.0}, {128, "B", 13.5, 39.0}, {128, "C", 40.5, 39.0},
	{1024, "A", 0.19, 11.1}, {1024, "B", 1.69, 23.5}, {1024, "C", 5.06, 25.0},
	{3072, "A", 0.053, 13.2}, {3072, "B", 0.47, 12.4}, {3072, "C", 1.90, 17.6},
}

func TestTable2MessageSizesMatchPaper(t *testing.T) {
	rows := SummitA2A().Table2()
	if len(rows) != len(paperTable2) {
		t.Fatalf("rows %d want %d", len(rows), len(paperTable2))
	}
	for i, w := range paperTable2 {
		g := rows[i]
		if g.Nodes != w.nodes || g.Cfg != w.cfg {
			t.Fatalf("row %d: got %d/%s want %d/%s", i, g.Nodes, g.Cfg, w.nodes, w.cfg)
		}
		gotMB := g.P2P / (1 << 20)
		if math.Abs(gotMB-w.p2pMB)/w.p2pMB > 0.02 {
			t.Errorf("%d/%s: P2P %.3f MB want %.3f", w.nodes, w.cfg, gotMB, w.p2pMB)
		}
	}
}

func TestTable2BandwidthsWithinTolerance(t *testing.T) {
	// The calibrated model must land within 12% of every measured cell
	// — tight enough that every qualitative conclusion of §4.1 holds.
	rows := SummitA2A().Table2()
	for i, w := range paperTable2 {
		got := rows[i].BW / 1e9
		rel := math.Abs(got-w.bwGBs) / w.bwGBs
		if rel > 0.12 {
			t.Errorf("%d nodes cfg %s: BW %.1f GB/s want %.1f (rel %.0f%%)",
				w.nodes, w.cfg, got, w.bwGBs, rel*100)
		}
	}
}

func TestQualitativeOrderingsOfSection41(t *testing.T) {
	rows := SummitA2A().Table2()
	get := func(nodes int, cfg string) float64 {
		for _, r := range rows {
			if r.Nodes == nodes && r.Cfg == cfg {
				return r.BW
			}
		}
		t.Fatalf("missing %d/%s", nodes, cfg)
		return 0
	}
	// B beats A up to 1024 nodes (larger messages win).
	for _, nodes := range []int{16, 128, 1024} {
		if get(nodes, "B") <= get(nodes, "A") {
			t.Errorf("%d nodes: B should beat A", nodes)
		}
	}
	// At 3072 nodes A beats B (eager-path anomaly).
	if get(3072, "A") <= get(3072, "B") {
		t.Error("3072 nodes: A should beat B via the eager path")
	}
	// C ≥ B everywhere (bigger messages, fewer calls).
	for _, nodes := range []int{16, 128, 1024, 3072} {
		if get(nodes, "C") < get(nodes, "B")*0.999 {
			t.Errorf("%d nodes: C should not lose to B", nodes)
		}
	}
}

func TestBandwidthMonotonicInMessageSize(t *testing.T) {
	m := SummitA2A()
	for _, nodes := range []int{16, 128, 1024, 3072} {
		prev := 0.0
		for _, msg := range []float64{128 * kib, mib, 16 * mib, 256 * mib} {
			bw := m.NodeBandwidth(msg, nodes)
			if bw < prev {
				t.Errorf("nodes %d: bandwidth not monotone at %g bytes", nodes, msg)
			}
			prev = bw
		}
	}
}

func TestSaturatedBandwidthDegradesWithScale(t *testing.T) {
	// In the large-message limit the per-node bandwidth falls with node
	// count — the Table 2 trend that motivates the paper's "fewer,
	// larger messages" design.
	m := SummitA2A()
	msg := 512 * mib
	prev := math.Inf(1)
	for _, nodes := range []int{16, 128, 1024, 3072} {
		bw := m.NodeBandwidth(msg, nodes)
		if bw > prev {
			t.Errorf("saturated bandwidth grew with node count at %d nodes", nodes)
		}
		prev = bw
	}
}

func TestInterpolationBetweenCalibrationPoints(t *testing.T) {
	m := SummitA2A()
	// 1536 nodes sits between the 1024 and 3072 calibrations.
	bwMid := m.NodeBandwidth(4*mib, 1536)
	bwLo := m.NodeBandwidth(4*mib, 3072)
	bwHi := m.NodeBandwidth(4*mib, 1024)
	if bwMid < bwLo || bwMid > bwHi {
		t.Errorf("interpolated BW %.1f outside [%.1f, %.1f]", bwMid/1e9, bwLo/1e9, bwHi/1e9)
	}
	// Clamping outside the range.
	if m.NodeBandwidth(4*mib, 8) != m.NodeBandwidth(4*mib, 16) {
		t.Error("below-range node count should clamp")
	}
	if m.NodeBandwidth(4*mib, 4608) != m.NodeBandwidth(4*mib, 3072) {
		t.Error("above-range node count should clamp")
	}
}

func TestTimeInvertsEq3(t *testing.T) {
	m := SummitA2A()
	p2p := 1.9 * mib
	p, tpn, nodes := 6144, 2, 3072
	tm := m.Time(p2p, p, tpn, nodes)
	bw := 2 * p2p * float64(p) * float64(tpn) / tm
	if math.Abs(bw-m.NodeBandwidth(p2p, nodes))/bw > 1e-12 {
		t.Error("Time() does not invert Eq 3")
	}
}

func TestP2PFormulas(t *testing.T) {
	// 16 nodes, N=3072: case C (P=32): 324 MB; case A (P=96, np=3): 12 MB.
	if got := P2PSlab(3072, 32, 3) / mib; math.Abs(got-324) > 1 {
		t.Errorf("slab P2P %.1f MB want 324", got)
	}
	if got := P2PPencil(3072, 96, 3, 3) / mib; math.Abs(got-12) > 0.1 {
		t.Errorf("pencil P2P %.2f MB want 12", got)
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	SummitA2A().NodeBandwidth(0, 16)
}

// The asynchrony-tolerance study: at full production scale (18432³ on
// 3072 nodes, configuration C) the synchronous schedule pays every
// straggler's delay in full, while a staleness bound of k epochs
// hides up to k exchange intervals of it. The properties pinned here
// generate the EXPERIMENTS.md straggler table.
func TestStragglerStudyProperties(t *testing.T) {
	m := SummitA2A()
	base := StragglerScenario{
		N: 18432, Nodes: 3072, TPN: 2, NV: 3,
		Exchanges: 18, Compute: 0.5,
	}
	// Exchange-dominated step, as the paper reports at scale.
	syncNoDelay, atNoDelay := m.StepTimes(base)
	if syncNoDelay != atNoDelay {
		t.Fatalf("no-delay schedules differ: %g vs %g", syncNoDelay, atNoDelay)
	}
	epoch := syncNoDelay / float64(base.Exchanges)

	for _, delay := range []float64{1, 5, 10} {
		prev := math.Inf(1)
		for _, k := range []int{0, 1, 2, 4, 8} {
			sc := base
			sc.Delay, sc.MaxStale = delay, k
			sync, at := m.StepTimes(sc)
			if sync != syncNoDelay+delay {
				t.Errorf("sync schedule must absorb nothing: %g vs %g", sync, syncNoDelay+delay)
			}
			if at > sync {
				t.Errorf("delay=%g k=%d: AT slower than sync (%g > %g)", delay, k, at, sync)
			}
			if k == 0 && at != sync {
				t.Errorf("delay=%g: bound 0 must match the synchronous schedule", delay)
			}
			if at > prev {
				t.Errorf("delay=%g k=%d: AT time not monotone in the bound", delay, k)
			}
			if float64(k)*epoch >= delay && math.Abs(at-syncNoDelay) > 1e-9 {
				t.Errorf("delay=%g k=%d: delay within pipeline depth not fully hidden (%g vs %g)",
					delay, k, at, syncNoDelay)
			}
			prev = at
		}
	}
}

// TestStragglerStudyTable regenerates the EXPERIMENTS.md numbers so
// the committed table cannot drift from the model.
func TestStragglerStudyTable(t *testing.T) {
	m := SummitA2A()
	base := StragglerScenario{
		N: 18432, Nodes: 3072, TPN: 2, NV: 3,
		Exchanges: 18, Compute: 0.5, Delay: 5,
	}
	speedup := func(k int) float64 {
		sc := base
		sc.MaxStale = k
		sync, at := m.StepTimes(sc)
		return sync / at
	}
	// One exchange interval is ~2.92 s at this geometry: k=1 hides
	// part of the 5 s straggler, k=2 hides it completely.
	if s := speedup(0); s != 1 {
		t.Errorf("k=0 speedup %g, want exactly 1", s)
	}
	if s := speedup(1); math.Abs(s-1.053) > 0.005 {
		t.Errorf("k=1 speedup %0.3f, EXPERIMENTS.md says 1.053", s)
	}
	if s := speedup(2); math.Abs(s-1.095) > 0.005 {
		t.Errorf("k=2 speedup %0.3f, EXPERIMENTS.md says 1.095", s)
	}
}

// TestPencilCrossover18432 regenerates the EXPERIMENTS.md
// slab-vs-pencil table at the paper's largest production geometry
// (18432³, 6 tasks/node) so the committed numbers cannot drift from
// the model, and pins the three regimes the 2D decomposition is built
// for: slab wins while its messages are fat, the crossover lands at
// the P = N wall where slab P2P messages collapse to ~220 KB, and
// past the wall only pencil layouts exist and scaling continues.
func TestPencilCrossover18432(t *testing.T) {
	const n = 18432
	m := SummitA2A()
	ps := []int{1536, 3072, 6144, 12288, 18432, 36864, 73728, 147456}
	rows := m.Crossover(n, 6, 3, ps)
	byP := map[int]CrossoverRow{}
	for _, r := range rows {
		if r.Pr == 0 || r.Pencil <= 0 {
			t.Fatalf("P=%d: no valid pencil grid", r.P)
		}
		byP[r.P] = r
	}
	// Regime 1: while slab messages are fat, the single exchange beats
	// the pencil's two (it moves every byte once, not twice).
	for _, p := range []int{1536, 3072, 6144} {
		r := byP[p]
		if r.Slab <= 0 || r.Slab >= r.Pencil {
			t.Errorf("P=%d: slab %.3fs should beat pencil %.3fs", p, r.Slab, r.Pencil)
		}
	}
	// P=12288 does not divide N: already past the wall despite P < N.
	if r := byP[12288]; r.Slab != 0 {
		t.Errorf("P=12288: slab layout should not exist (12288 ∤ 18432), got %.3fs", r.Slab)
	}
	// Regime 2: at P = N the slab's P2P message has collapsed to
	// 4·nv·N bytes (~221 KB) and its bandwidth with it — the pencil's
	// fatter sub-messages win before the wall is even hit.
	if r := byP[n]; r.Slab <= 0 || r.Pencil >= r.Slab {
		t.Errorf("P=N=%d: pencil %.3fs should beat slab %.3fs", n, r.Pencil, r.Slab)
	}
	// Regime 3: past the wall there is no slab layout and pencil
	// scaling continues monotonically.
	prev := byP[n].Pencil
	for _, p := range []int{36864, 73728, 147456} {
		r := byP[p]
		if r.Slab != 0 {
			t.Errorf("P=%d > N: slab layout should not exist, got %.3fs", p, r.Slab)
		}
		if r.Pencil >= prev {
			t.Errorf("P=%d: pencil %.3fs not faster than previous %.3fs", p, r.Pencil, prev)
		}
		prev = r.Pencil
	}
	// EXPERIMENTS.md pins: the crossover row and the 2× past-the-wall
	// row (seconds per transpose, ±0.5%).
	pin := func(p int, want float64) {
		if got := byP[p].Pencil; math.Abs(got-want)/want > 0.005 {
			t.Errorf("P=%d pencil %.4fs, EXPERIMENTS.md says %.4fs", p, got, want)
		}
	}
	pin(18432, 4.9521)
	pin(36864, 2.5307)
	if got := byP[18432].Slab; math.Abs(got-6.5049)/6.5049 > 0.005 {
		t.Errorf("P=18432 slab %.4fs, EXPERIMENTS.md says 6.5049s", got)
	}
}

// --- 2D pencil decomposition ----------------------------------------------
//
// The slab layout performs one all-to-all over all P ranks per
// transpose; the pencil layout over a Pr×Pc process grid performs two
// — a column exchange among the Pc ranks sharing a row group and a row
// exchange among the Pr ranks sharing a column group. Each rank owns
// 4·nv·N³/P bytes either way, so the sub-exchange messages are larger
// (divided among pc or pr peers instead of P) but the transpose moves
// every byte twice. Sub-exchanges run concurrently across groups and
// share node bandwidth; the bandwidth lookup keeps the full node count
// (adaptive-routing congestion is fabric-wide, not per-group).

// P2PPencilCol is the P2P message size of the pencil column exchange
// (completes z, splits x within a Pc-group): 4·nv·N³/(P·Pc) bytes.
func P2PPencilCol(n, pr, pc, nv int) float64 {
	own := 4 * float64(nv) * float64(n) * float64(n) * float64(n) / float64(pr*pc)
	return own / float64(pc)
}

// P2PPencilRow is the P2P message size of the pencil row exchange
// (completes y, re-splits z within a Pr-group): 4·nv·N³/(P·Pr) bytes.
func P2PPencilRow(n, pr, pc, nv int) float64 {
	own := 4 * float64(nv) * float64(n) * float64(n) * float64(n) / float64(pr*pc)
	return own / float64(pr)
}

// PencilTime is the wall time of one pencil transpose: the column
// exchange plus the row exchange, each through the Eq 3 model at its
// own message size and sub-exchange fan-out.
func (m *A2AModel) PencilTime(n, pr, pc, tpn, nodes, nv int) float64 {
	return m.Time(P2PPencilCol(n, pr, pc, nv), pc, tpn, nodes) +
		m.Time(P2PPencilRow(n, pr, pc, nv), pr, tpn, nodes)
}

// SlabTime is the corresponding single-exchange slab transpose time.
func (m *A2AModel) SlabTime(n, p, tpn, nodes, nv int) float64 {
	return m.Time(P2PSlab(n, p, nv), p, tpn, nodes)
}

// CrossoverRow is one line of the slab-vs-pencil scaling table: the
// modeled transpose time of the slab layout (0 when no slab layout
// exists — P > N or P ∤ N, the slab scaling wall) and of the fastest
// valid pencil grid at the same rank count.
type CrossoverRow struct {
	P      int
	Nodes  int
	Slab   float64 // seconds; 0 = no valid slab layout
	Pr, Pc int     // fastest pencil grid (0,0 = none valid)
	Pencil float64 // seconds
}

// Crossover builds the slab-vs-pencil table for an n³ field at tpn
// tasks per node over the given rank counts, picking for every P the
// fastest valid pencil grid. Rows where Slab is zero but Pencil is not
// are the regime the 2D decomposition exists for: rank counts past the
// slab wall.
func (m *A2AModel) Crossover(n, tpn, nv int, ps []int) []CrossoverRow {
	var rows []CrossoverRow
	for _, p := range ps {
		nodes := (p + tpn - 1) / tpn
		row := CrossoverRow{P: p, Nodes: nodes}
		if p <= n && n%p == 0 {
			row.Slab = m.SlabTime(n, p, tpn, nodes, nv)
		}
		for pr := 1; pr <= p; pr++ {
			if p%pr != 0 {
				continue
			}
			pc := p / pr
			if n%pr != 0 || n%pc != 0 || pc > n/2+1 {
				continue
			}
			t := m.PencilTime(n, pr, pc, tpn, nodes, nv)
			if row.Pr == 0 || t < row.Pencil {
				row.Pr, row.Pc, row.Pencil = pr, pc, t
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// StragglerScenario describes one asynchrony-tolerance trade-off
// study: a production step of Exchanges collective transposes plus
// Compute seconds of overlapped arithmetic, on which one straggling
// node injects Delay seconds of excess every step (OS jitter, ECC
// scrub, a slow GPU — the transient noise that at 3072 nodes is
// almost never zero for all nodes simultaneously).
type StragglerScenario struct {
	N, Nodes, TPN, NV int
	Exchanges         int     // collective transposes per step
	Compute           float64 // per-step compute outside exchanges (s)
	Delay             float64 // straggler excess per step (s)
	MaxStale          int     // AT staleness bound in exchange epochs
}

// StepTimes returns the per-step wall time of the synchronous and the
// asynchrony-tolerant schedule for the scenario. Synchronously, every
// exchange is a barrier, so the straggler's delay lands on every
// rank's critical path in full. With a staleness bound of k epochs,
// peers run up to k exchanges ahead on the straggler's last published
// slabs, so up to k exchange intervals of delay are absorbed by the
// pipeline before anyone blocks; the remainder still serializes.
func (m *A2AModel) StepTimes(sc StragglerScenario) (sync, at float64) {
	if sc.Exchanges < 1 || sc.MaxStale < 0 {
		panic(fmt.Sprintf("simnet: invalid scenario: %d exchanges, bound %d", sc.Exchanges, sc.MaxStale))
	}
	p := sc.TPN * sc.Nodes
	tx := m.Time(P2PSlab(sc.N, p, sc.NV), p, sc.TPN, sc.Nodes)
	step := float64(sc.Exchanges)*tx + sc.Compute
	sync = step + sc.Delay
	epoch := step / float64(sc.Exchanges)
	hidden := math.Min(sc.Delay, float64(sc.MaxStale)*epoch)
	at = step + sc.Delay - hidden
	return sync, at
}
