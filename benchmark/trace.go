package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro"
)

// Spans are recorded from the benchmark's own files, around the calls
// into each layer: the step (root), and under it every transform call
// the solver makes into the engine it was handed. Spans inside the
// program are a later issue; below the transform boundary the per-layer
// table reads the program's own metrics registry instead.

type spanName uint8

// Each inverse name follows its forward one: the decorator derives it.
const (
	spanStep spanName = iota
	spanPfftFwd
	spanPfftInv
	spanCoreFwd
	spanCoreInv
)

var spanNames = [...]string{"step", "pfft.fwd", "pfft.inv", "core.fwd", "core.inv"}

type span struct {
	name       spanName
	parent     int32 // index of the causing span in the same ring; -1 for a root
	step       int32 // warm-up steps are negative, timed steps count from 0
	start, end int64 // ns since the ring's origin
}

// spanRing is one rank's preallocated span store. A nil ring records
// nothing, so untraced blocks pay one nil check per call site.
type spanRing struct {
	rank   int
	origin time.Time
	spans  []span
	open   int32 // innermost open span, -1 when none
	step   int32
	lost   int // spans dropped because the ring was full
}

func newSpanRing(rank, capacity int, origin time.Time) *spanRing {
	return &spanRing{rank: rank, origin: origin, spans: make([]span, 0, capacity), open: -1}
}

// setStep labels the spans that follow: warm-up steps are negative,
// timed steps count from 0.
func (r *spanRing) setStep(step int) {
	if r != nil {
		r.step = int32(step)
	}
}

// begin opens a span under the innermost open one and returns its
// index (−1 when nothing was recorded).
func (r *spanRing) begin(name spanName) int32 {
	if r == nil {
		return -1
	}
	if len(r.spans) == cap(r.spans) {
		r.lost++
		return -1
	}
	i := int32(len(r.spans))
	r.spans = append(r.spans, span{name: name, parent: r.open, step: r.step, start: int64(time.Since(r.origin))})
	r.open = i
	return i
}

func (r *spanRing) end(i int32) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].end = int64(time.Since(r.origin))
	r.open = r.spans[i].parent
}

// tracedTransform is the timing decorator over the solver's Transform
// contract: every call becomes a child span of the step that made it.
type tracedTransform struct {
	repro.Transform
	ring     *spanRing
	fwd, inv spanName
}

// traceTransform wraps tr when the block is traced and returns it
// untouched otherwise, so untraced blocks run the bare engine.
func traceTransform(tr repro.Transform, ring *spanRing, fwd spanName) repro.Transform {
	if ring == nil {
		return tr
	}
	return &tracedTransform{Transform: tr, ring: ring, fwd: fwd, inv: fwd + 1}
}

func (t *tracedTransform) PhysicalToFourier(four []complex128, phys []float64) {
	sp := t.ring.begin(t.fwd)
	t.Transform.PhysicalToFourier(four, phys)
	t.ring.end(sp)
}

func (t *tracedTransform) FourierToPhysical(phys []float64, four []complex128) {
	sp := t.ring.begin(t.inv)
	t.Transform.FourierToPhysical(phys, four)
	t.ring.end(sp)
}

// Close forwards to the engine so a solver that owns its transform
// still releases the engine's plans through the decorator.
func (t *tracedTransform) Close() {
	if c, ok := t.Transform.(interface{ Close() }); ok {
		c.Close()
	}
}

// spanTotals is what the per-layer table needs from one rank's spans
// of the timed steps.
type spanTotals struct {
	layer    string // the package the transform spans belong to: "pfft" or "core"
	steps    int    // step spans
	children int    // transform spans
	rootNS   int64  // Σ step spans
	selfNS   int64  // Σ step self time
	childNS  int64  // Σ transform spans (leaves: their self time is their duration)
	fwdMS    []float64
	invMS    []float64
}

// totals folds the spans of timed steps (step ≥ 0). A span's self time
// is its duration minus the part of that interval its children cover:
// children are clipped to the parent and overlapping ones merged, so a
// misattributed or leaking child shows as Σ self ≠ Σ root instead of
// cancelling out.
func (r *spanRing) totals() spanTotals {
	t := spanTotals{layer: "pfft"}
	for i, s := range r.spans {
		if s.step < 0 {
			continue
		}
		d := s.end - s.start
		if s.name == spanStep {
			t.steps++
			t.rootNS += d
			t.selfNS += d - r.covered(int32(i))
			continue
		}
		t.children++
		t.childNS += d
		if s.name == spanCoreFwd || s.name == spanCoreInv {
			t.layer = "core"
		}
		if s.name == spanPfftFwd || s.name == spanCoreFwd {
			t.fwdMS = append(t.fwdMS, float64(d)/1e6)
		} else {
			t.invMS = append(t.invMS, float64(d)/1e6)
		}
	}
	return t
}

// covered is the length of the part of span i that its direct children
// cover. Children are recorded in start order after their parent.
func (r *spanRing) covered(i int32) int64 {
	p := r.spans[i]
	var total int64
	edge := p.start // everything before edge is already counted
	for _, c := range r.spans[i+1:] {
		if c.start >= p.end {
			break
		}
		if c.parent != i {
			continue
		}
		lo, hi := max(c.start, edge), min(c.end, p.end)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// chromeEvent is one complete ("X") event of the Chrome trace format
// (chrome://tracing, Perfetto): timestamps in microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChromeTrace writes every rank's spans as one trace file, one
// thread row per rank.
func writeChromeTrace(path string, rings []*spanRing) error {
	var events []chromeEvent
	for _, r := range rings {
		for i, s := range r.spans {
			events = append(events, chromeEvent{
				Name: spanNames[s.name], Ph: "X",
				TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				TID:  r.rank,
				Args: map[string]any{"step": s.step, "span": i, "parent": s.parent},
			})
		}
	}
	data, err := json.Marshal(events)
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return fmt.Errorf("write chrome trace %s: %w", path, err)
	}
	return nil
}
