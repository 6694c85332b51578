package mpi

import (
	"errors"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestCrashScheduleSurfacesTypedError: a scheduled rank crash reaches
// the caller as a *RankError wrapping a *CrashError, instead of
// hanging the peers.
func TestCrashScheduleSurfacesTypedError(t *testing.T) {
	err := TryRun(3, func(c *Comm) {
		c.Barrier()
		c.Barrier() // rank 1 crashes initiating this one
		c.Barrier()
	}, WithFaults(&Faults{Crash: map[int]int{1: 2}}))
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("error %T (%v) is not *RankError", err, err)
	}
	if re.Rank != 1 {
		t.Fatalf("RankError.Rank = %d, want 1", re.Rank)
	}
	var ce *CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("cause %v is not *CrashError", re.Err)
	}
	if ce.Rank != 1 || ce.Op != 2 {
		t.Fatalf("CrashError = %+v, want rank 1 at op 2", ce)
	}
}

// dropCount runs a fixed send pattern under a probabilistic drop rule
// and returns the total injected-drop count.
func dropCount(t *testing.T, seed int64) float64 {
	t.Helper()
	reg := metrics.NewRegistry()
	err := RunWith(2, reg, func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 100; i++ {
				Send(c, 1, i, []byte{1})
			}
		}
		// Rank 1 never receives: surviving messages just sit in the
		// queue, so drops cannot deadlock the run.
	}, WithFaults(&Faults{
		Seed:  seed,
		Rules: []FaultRule{{Src: 0, Dst: 1, Tag: AnyTag, Scope: ScopeP2P, DropProb: 0.5}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := reg.Snapshot().SumOverRanks().Get("mpi.fault.drop", metrics.NoRank)
	if !ok {
		t.Fatal("no mpi.fault.drop counter recorded")
	}
	return e.Value
}

// TestDropDeterminism: the same seed must drop exactly the same
// messages on every run; fault injection is reproducible by contract.
func TestDropDeterminism(t *testing.T) {
	a := dropCount(t, 42)
	b := dropCount(t, 42)
	if a != b {
		t.Fatalf("same seed produced different drop counts: %v vs %v", a, b)
	}
	if a == 0 || a == 100 {
		t.Fatalf("drop count %v not in (0,100): DropProb 0.5 is not being applied per message", a)
	}
}

// TestDelayedDeliveryIsNotADeadlock: a message held on a fault timer
// longer than the deadlock window must not trip the watchdog — the
// pending counter marks the world as still having in-flight traffic.
func TestDelayedDeliveryIsNotADeadlock(t *testing.T) {
	got := make([]float64, 2)
	err := TryRun(2, func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, 1, 5, []float64{3.5, 7.25})
			return
		}
		Recv(c, 0, 5, got)
	},
		WithWatchdog(Watchdog{DeadlockAfter: 100 * time.Millisecond, Poll: 5 * time.Millisecond}),
		WithFaults(&Faults{Rules: []FaultRule{{
			Src: AnyRank, Dst: AnyRank, Tag: AnyTag, Scope: ScopeP2P,
			Delay: 300 * time.Millisecond, // 3× the deadlock window
		}}}),
	)
	if err != nil {
		t.Fatalf("delayed delivery was reported as a failure: %v", err)
	}
	if got[0] != 3.5 || got[1] != 7.25 {
		t.Fatalf("delayed message corrupted: %v", got)
	}
}

// TestDuplicateDelivery: DupProb 1 delivers every matching message
// twice; both copies must be receivable and the dup counter must
// record the event.
func TestDuplicateDelivery(t *testing.T) {
	reg := metrics.NewRegistry()
	err := RunWith(2, reg, func(c *Comm) {
		if c.Rank() == 0 {
			Send(c, 1, 9, []int{11})
			return
		}
		a, b := make([]int, 1), make([]int, 1)
		Recv(c, 0, 9, a)
		Recv(c, 0, 9, b) // the injected duplicate
		if a[0] != 11 || b[0] != 11 {
			panic("duplicate payload mismatch")
		}
	}, WithFaults(&Faults{
		Rules: []FaultRule{{Src: 0, Dst: 1, Tag: 9, Scope: ScopeP2P, DupProb: 1}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := reg.Snapshot().Get("mpi.fault.dup", 0); !ok || e.Value != 1 {
		t.Fatalf("mpi.fault.dup = %+v, want 1 duplication recorded for rank 0", e)
	}
}

// TestFaultValidation: invalid plans are rejected up front as errors,
// not at injection time.
func TestFaultValidation(t *testing.T) {
	cases := []*Faults{
		{Rules: []FaultRule{{Src: AnyRank, Dst: AnyRank, Tag: AnyTag, DropProb: 1.5}}},
		{Rules: []FaultRule{{Src: 7, Dst: AnyRank, Tag: AnyTag}}},
		{Crash: map[int]int{0: 0}},
		{Crash: map[int]int{9: 1}},
	}
	for i, f := range cases {
		if err := TryRun(2, func(c *Comm) {}, WithFaults(f)); err == nil {
			t.Errorf("case %d: invalid fault plan accepted", i)
		}
	}
}

// TestFaultScopeFilters: a collective-only rule must leave
// point-to-point traffic untouched, and MinBytes must exempt small
// messages.
func TestFaultScopeFilters(t *testing.T) {
	err := TryRun(2, func(c *Comm) {
		// Small control allgather survives the MinBytes=1024 drop rule.
		all := make([]float64, 2)
		Allgather(c, []float64{float64(c.Rank())}, all)
		if all[0] != 0 || all[1] != 1 {
			panic("allgather corrupted")
		}
		// P2P traffic is outside ScopeColl entirely.
		buf := make([]byte, 4)
		if c.Rank() == 0 {
			Send(c, 1, 1, []byte{1, 2, 3, 4})
		} else {
			Recv(c, 0, 1, buf)
		}
	},
		fastWatch(),
		WithFaults(&Faults{Rules: []FaultRule{{
			Src: AnyRank, Dst: AnyRank, Tag: AnyTag,
			Scope: ScopeColl, MinBytes: 1024, DropProb: 1,
		}}}),
	)
	if err != nil {
		t.Fatalf("scoped drop rule hit exempt traffic: %v", err)
	}
}

// DropAll returns a rule that drops every message from src to dst with
// the given tag.
func DropAll(src, dst, tag int) FaultRule {
	return FaultRule{Src: src, Dst: dst, Tag: tag, DropProb: 1}
}
