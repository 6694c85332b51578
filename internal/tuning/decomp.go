package tuning

import (
	"fmt"
	"strconv"
	"strings"
)

// Decomp selects how the 3D field is distributed over the P ranks.
//
// The zero value is the slab decomposition: P slabs of N/P planes,
// valid only while P divides N (the paper's layout, capped at P ≤ N).
// A pencil decomposition splits the field over a Pr×Pc process grid —
// Pr row groups and Pc column groups — so P = Pr·Pc ranks each own an
// N/Pr × N/Pc × N pencil, lifting the slab's P ≤ N scaling wall.
// DecompAuto asks a tuned constructor to measure every valid layout
// and keep the winner.
type Decomp struct {
	Pr int `json:"pr"`
	Pc int `json:"pc"`
}

var (
	// DecompSlab is the slab decomposition (the zero value).
	DecompSlab = Decomp{}
	// DecompAuto asks tuned constructors to search slab and every
	// valid pencil grid. It never appears in a Point: the cache
	// records the concrete winner.
	DecompAuto = Decomp{Pr: -1, Pc: -1}
)

// Pencil returns the pencil decomposition over a pr×pc process grid.
func Pencil(pr, pc int) Decomp { return Decomp{Pr: pr, Pc: pc} }

// IsSlab reports whether d is the slab decomposition.
func (d Decomp) IsSlab() bool { return d == DecompSlab }

// IsAuto reports whether d requests an autotuned layout choice.
func (d Decomp) IsAuto() bool { return d == DecompAuto }

// IsPencil reports whether d is a concrete pencil grid.
func (d Decomp) IsPencil() bool { return d.Pr > 0 && d.Pc > 0 }

func (d Decomp) String() string {
	switch {
	case d.IsSlab():
		return "slab"
	case d.IsAuto():
		return "auto"
	default:
		return fmt.Sprintf("%dx%d", d.Pr, d.Pc)
	}
}

// ParseDecomp parses "slab", "auto", or an explicit "PRxPC" grid
// (e.g. "2x4").
func ParseDecomp(s string) (Decomp, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "slab":
		return DecompSlab, nil
	case "auto":
		return DecompAuto, nil
	}
	lo, hi, ok := strings.Cut(strings.ToLower(s), "x")
	if ok {
		pr, err1 := strconv.Atoi(strings.TrimSpace(lo))
		pc, err2 := strconv.Atoi(strings.TrimSpace(hi))
		if err1 == nil && err2 == nil && pr > 0 && pc > 0 {
			return Pencil(pr, pc), nil
		}
	}
	return Decomp{}, fmt.Errorf("tuning: bad decomposition %q (want slab, auto, or PRxPC)", s)
}

// Valid reports whether d can lay out an n³ field over p ranks. Slab
// needs p | n; a pencil grid needs pr·pc = p, pr | n, pc | n, and
// pc ≤ n/2+1 so every column group owns a non-empty span of the
// Hermitian-reduced x axis.
func (d Decomp) Valid(n, p int) bool {
	switch {
	case d.IsSlab():
		return p >= 1 && n%p == 0
	case d.IsPencil():
		return d.Pr*d.Pc == p && n%d.Pr == 0 && n%d.Pc == 0 && d.Pc <= n/2+1
	default:
		return false
	}
}

// Decompositions enumerates every distinct decomposition valid for an
// n³ field over p ranks, slab first (when valid) and pencil grids with
// Pc > 1 in ascending Pr. The P×1 grid is left out: it is valid exactly
// when slab is, and it builds the same one-column engine, so listing it
// would make an autotuner construct and trial that engine twice. The
// ordering is deterministic and identical on every rank, and
// the resolve breaks ties toward earlier entries, so slab — the
// simpler, single-exchange layout — wins a statistical wash.
func Decompositions(n, p int) []Decomp {
	var ds []Decomp
	if (DecompSlab).Valid(n, p) {
		ds = append(ds, DecompSlab)
	}
	for pr := 1; pr < p; pr++ {
		if p%pr != 0 {
			continue
		}
		if d := Pencil(pr, p/pr); d.Valid(n, p) {
			ds = append(ds, d)
		}
	}
	return ds
}
