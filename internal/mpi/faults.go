package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/metrics"
	"repro/internal/simnet"
)

// Wildcards for FaultRule filters.
const (
	// AnyRank matches every source or destination rank.
	AnyRank = -1
	// AnyTag matches every collective sequence number.
	AnyTag = math.MinInt
)

// FaultRule describes one class of injected message pathology. A
// message is one collective's publication as one reader takes it; it
// matches when its (src, dst, tag, size) pass every filter, and the
// first matching rule in Faults.Rules is applied. Note the zero value
// of Src/Dst filters on rank 0 — use AnyRank (and AnyTag) for
// wildcards, or start from MatchAll().
type FaultRule struct {
	Src, Dst int // rank filters; AnyRank matches every rank
	Tag      int // collective sequence number filter; AnyTag matches all
	// MinBytes restricts the rule to messages of at least this wire
	// size, e.g. to target bulk all-to-all fragments while leaving
	// small control collectives untouched.
	MinBytes int64

	// DropProb is the probability a matching message is silently lost.
	DropProb float64
	// DupProb is the probability a matching message is delivered
	// twice. It is counted and has no other effect: a published buffer
	// read twice is the same read.
	DupProb float64
	// Delay is a fixed extra latency applied to matching messages.
	Delay time.Duration
	// Bandwidth, when positive, adds bytes/Bandwidth of size-dependent
	// latency (bytes per second).
	Bandwidth float64
	// Model, when non-nil, derives a size-dependent latency from the
	// calibrated Summit all-to-all network model of internal/simnet:
	// bytes / NodeBandwidth(bytes, ModelNodes), scaled by TimeScale so
	// paper-scale seconds compress into test time.
	Model      *simnet.A2AModel
	ModelNodes int
	TimeScale  float64
}

// MatchAll returns a rule whose filters match every message; set the
// fault fields on the result.
func MatchAll() FaultRule {
	return FaultRule{Src: AnyRank, Dst: AnyRank, Tag: AnyTag}
}

func (r *FaultRule) matches(src, dst, tag int, bytes int64) bool {
	if r.Src != AnyRank && r.Src != src {
		return false
	}
	if r.Dst != AnyRank && r.Dst != dst {
		return false
	}
	if r.Tag != AnyTag && r.Tag != tag {
		return false
	}
	if bytes < r.MinBytes {
		return false
	}
	return true
}

// Faults is a deterministic fault-injection plan for one world: given
// the same Seed and the same program, the same messages are dropped,
// duplicated and delayed on every run. A message is one rank's
// publication in a collective round — an ExchangePlan.Do or a one-shot
// collective — as one reader takes it; its tag is the collective's
// sequence number. Random draws are made from a dedicated stream per
// (src,dst) pair, drawn on rank src's goroutine in its program order. Injected events
// are counted into the world's metrics registry as mpi.fault.drop/dup/
// delay, labelled by the sending rank.
type Faults struct {
	Seed  int64
	Rules []FaultRule
	// Crash schedules hard rank failures: rank → the 1-based index of
	// the operation initiation (Barrier or any collective on the world
	// communicator) at which the rank panics with a
	// *CrashError. The abort cascade then wakes its peers, so the
	// failure surfaces as an error instead of a hang.
	Crash map[int]int
}

// CrashError is the typed panic value of a scheduled rank crash; it
// reaches the caller wrapped in TryRun's *RankError.
type CrashError struct {
	Rank int
	Op   int // the 1-based operation index at which the crash fired
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("mpi: injected fault: rank %d crashed at operation %d", e.Rank, e.Op)
}

// faultState is the per-world compiled form of a Faults plan.
type faultState struct {
	p     int
	rules []FaultRule
	crash map[int]int
	// rngs[src*p+dst] is drawn only as rank src publishes to dst, on
	// src's goroutine, so the streams need no locking and stay
	// deterministic under goroutine interleaving.
	rngs []*rand.Rand

	drops, dups, delays []*metrics.Counter // per sending rank; nil-safe
}

func compileFaults(f *Faults, p int, reg *metrics.Registry) (*faultState, error) {
	if f == nil {
		return nil, nil
	}
	for i := range f.Rules {
		r := &f.Rules[i]
		if r.DropProb < 0 || r.DropProb > 1 || r.DupProb < 0 || r.DupProb > 1 {
			return nil, fmt.Errorf("mpi: fault rule %d: probabilities must be in [0,1]", i)
		}
		if r.Delay < 0 || r.Bandwidth < 0 || r.MinBytes < 0 || r.TimeScale < 0 {
			return nil, fmt.Errorf("mpi: fault rule %d: negative delay/bandwidth/size/scale", i)
		}
		if (r.Src != AnyRank && (r.Src < 0 || r.Src >= p)) ||
			(r.Dst != AnyRank && (r.Dst < 0 || r.Dst >= p)) {
			return nil, fmt.Errorf("mpi: fault rule %d: rank filter outside world of size %d", i, p)
		}
		if r.Model != nil && r.ModelNodes < 1 {
			return nil, fmt.Errorf("mpi: fault rule %d: Model requires ModelNodes >= 1", i)
		}
	}
	for rank, op := range f.Crash {
		if rank < 0 || rank >= p {
			return nil, fmt.Errorf("mpi: crash schedule names rank %d outside world of size %d", rank, p)
		}
		if op < 1 {
			return nil, fmt.Errorf("mpi: crash schedule for rank %d: operation index %d < 1", rank, op)
		}
	}
	fs := &faultState{
		p:      p,
		rules:  append([]FaultRule(nil), f.Rules...),
		rngs:   make([]*rand.Rand, p*p),
		drops:  make([]*metrics.Counter, p),
		dups:   make([]*metrics.Counter, p),
		delays: make([]*metrics.Counter, p),
	}
	if len(f.Crash) > 0 {
		fs.crash = make(map[int]int, len(f.Crash))
		for k, v := range f.Crash {
			fs.crash[k] = v
		}
	}
	for s := 0; s < p; s++ {
		for d := 0; d < p; d++ {
			fs.rngs[s*p+d] = rand.New(rand.NewSource(f.Seed*1000003 + int64(s)*8191 + int64(d)))
		}
		fs.drops[s] = reg.CounterRank("mpi.fault.drop", s)
		fs.dups[s] = reg.CounterRank("mpi.fault.dup", s)
		fs.delays[s] = reg.CounterRank("mpi.fault.delay", s)
	}
	return fs, nil
}

// forSubgroup derives the fault state a Split sub-world inherits:
// crash schedules follow each rank into the sub-communicator (the
// crash map is re-keyed to the sub-world's ranks; the operation index
// counts per communicator because every Comm keeps its own counter),
// while message rules stay with the parent world. Returns nil when no
// group member has a scheduled crash, so rule-only fault plans add no
// per-message overhead to sub-communicators.
func (fs *faultState) forSubgroup(parentRanks []int) *faultState {
	if fs == nil || fs.crash == nil {
		return nil
	}
	crash := make(map[int]int)
	for child, parent := range parentRanks {
		if op, ok := fs.crash[parent]; ok {
			crash[child] = op
		}
	}
	if len(crash) == 0 {
		return nil
	}
	p := len(parentRanks)
	// The rng and counter slices must be sized even though no rules
	// ever draw from them: outcome indexes rngs before consulting the
	// rule list, and nil counters are no-ops.
	return &faultState{
		p:      p,
		crash:  crash,
		rngs:   make([]*rand.Rand, p*p),
		drops:  make([]*metrics.Counter, p),
		dups:   make([]*metrics.Counter, p),
		delays: make([]*metrics.Counter, p),
	}
}

// outcome draws this message's fate from the first matching rule.
func (fs *faultState) outcome(src, dst, tag int, bytes int64) (drop, dup bool, delay time.Duration) {
	rng := fs.rngs[src*fs.p+dst]
	for i := range fs.rules {
		r := &fs.rules[i]
		if !r.matches(src, dst, tag, bytes) {
			continue
		}
		if r.DropProb > 0 && rng.Float64() < r.DropProb {
			drop = true
		}
		if r.DupProb > 0 && rng.Float64() < r.DupProb {
			dup = true
		}
		delay = r.Delay
		if r.Bandwidth > 0 {
			delay += time.Duration(float64(bytes) / r.Bandwidth * float64(time.Second))
		}
		if r.Model != nil {
			ts := r.TimeScale
			if ts == 0 {
				ts = 1
			}
			bw := r.Model.NodeBandwidth(math.Max(float64(bytes), 1), r.ModelNodes)
			delay += time.Duration(ts * float64(bytes) / bw * float64(time.Second))
		}
		break // first matching rule wins
	}
	if drop {
		return true, false, 0
	}
	return drop, dup, delay
}

// maybeCrash advances the rank's operation counter and fires a
// scheduled crash. Called at every operation initiation on the world
// communicator (Barrier, collectives).
func (c *Comm) maybeCrash() {
	f := c.w.faults
	if f == nil || f.crash == nil {
		return
	}
	c.ops++
	if n, ok := f.crash[c.rank]; ok && c.ops == n {
		panic(&CrashError{Rank: c.rank, Op: c.ops})
	}
}
