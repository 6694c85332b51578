package mpi

import (
	"errors"
	"fmt"
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

// firstDrop runs Allgathers under a probabilistic drop rule on the
// fragments rank 0 publishes to rank 1 until the first drop starves
// rank 1, and returns the watchdog's stall and the drop count.
func firstDrop(t *testing.T, seed int64) (*StallError, float64) {
	t.Helper()
	reg := metrics.NewRegistry()
	err := RunWith(2, reg, func(c *Comm) {
		all := make([]byte, 2)
		for i := 0; i < 100; i++ {
			Allgather(c, []byte{1}, all)
		}
	},
		fastWatch(),
		WithFaults(&Faults{
			Seed:  seed,
			Rules: []FaultRule{{Src: 0, Dst: 1, Tag: AnyTag, DropProb: 0.5}},
		}))
	var st *StallError
	if !errors.As(err, &st) {
		t.Fatalf("seed %d: error %T (%v) is not *StallError", seed, err, err)
	}
	e, ok := reg.Snapshot().SumOverRanks().Get("mpi.fault.drop", metrics.NoRank)
	if !ok {
		t.Fatal("no mpi.fault.drop counter recorded")
	}
	return st, e.Value
}

// TestDropDeterminism: the same seed must drop exactly the same
// fragments on every run — fault injection is reproducible by
// contract — and the draw is made per fragment: different seeds starve
// the reader in different collectives.
func TestDropDeterminism(t *testing.T) {
	tags := map[int]bool{}
	for seed := int64(1); seed <= 4; seed++ {
		a, na := firstDrop(t, seed)
		b, nb := firstDrop(t, seed)
		if a.Tag != b.Tag || na != nb {
			t.Fatalf("seed %d: first drop in collective %d then %d (counts %v, %v)", seed, a.Tag, b.Tag, na, nb)
		}
		if a.Rank != 1 || a.Peer != 0 || a.Op != opWait || na != 1 {
			t.Fatalf("seed %d: StallError %+v after %v drops, want rank 1 starved of rank 0's fragment by one drop", seed, a, na)
		}
		tags[a.Tag] = true
	}
	if len(tags) == 1 {
		t.Fatalf("four seeds all dropped in collective %v: DropProb 0.5 is not drawn per fragment", tags)
	}
}

// TestDelayedDeliveryIsNotADeadlock: a fragment held on a fault delay
// longer than the deadlock window must not trip the watchdog — the
// pending counter marks the world as still having traffic in flight —
// and the collective still delivers the right data.
func TestDelayedDeliveryIsNotADeadlock(t *testing.T) {
	err := TryRun(2, func(c *Comm) {
		got := make([]float64, 4)
		Allgather(c, []float64{3.5, 7.25 * float64(c.Rank())}, got)
		if got[0] != 3.5 || got[1] != 0 || got[2] != 3.5 || got[3] != 7.25 {
			panic(fmt.Sprintf("delayed allgather corrupted: %v", got))
		}
	},
		WithWatchdog(Watchdog{DeadlockAfter: 100 * time.Millisecond, Poll: 5 * time.Millisecond}),
		WithFaults(&Faults{Rules: []FaultRule{{
			Src: AnyRank, Dst: AnyRank, Tag: AnyTag,
			Delay: 300 * time.Millisecond, // 3× the deadlock window
		}}}),
	)
	if err != nil {
		t.Fatalf("delayed delivery was reported as a failure: %v", err)
	}
}

// TestDuplicateDelivery: DupProb 1 delivers every matching fragment
// twice. The dup counter records it and the collective's result is
// unchanged: a published buffer read twice is the same read.
func TestDuplicateDelivery(t *testing.T) {
	reg := metrics.NewRegistry()
	err := RunWith(2, reg, func(c *Comm) {
		all := make([]int, 2)
		Allgather(c, []int{11 + c.Rank()}, all)
		if all[0] != 11 || all[1] != 12 {
			panic("duplicate payload mismatch")
		}
	}, WithFaults(&Faults{
		Rules: []FaultRule{{Src: 0, Dst: 1, Tag: 1, DupProb: 1}},
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

// TestFaultScopeFilters: a rule's filters exempt the fragments they do
// not match. Here a drop rule names collective 3 and fragments of at
// least 1 KiB: a large Allgather at another sequence number and a small
// one at sequence number 3 both survive it.
func TestFaultScopeFilters(t *testing.T) {
	err := TryRun(2, func(c *Comm) {
		small := make([]float64, 2)
		Allgather(c, []float64{float64(c.Rank())}, small) // seq 1: small
		big := make([]float64, 2*256)
		Allgather(c, make([]float64, 256), big)           // seq 2: 2 KiB, another seq
		Allgather(c, []float64{float64(c.Rank())}, small) // seq 3: small
		if small[0] != 0 || small[1] != 1 {
			panic("allgather corrupted")
		}
	},
		fastWatch(),
		WithFaults(&Faults{Rules: []FaultRule{{
			Src: AnyRank, Dst: AnyRank, Tag: 3, MinBytes: 1024, DropProb: 1,
		}}}),
	)
	if err != nil {
		t.Fatalf("filtered drop rule hit exempt traffic: %v", err)
	}
}

// DropAll returns a rule that drops every message from src to dst with
// the given tag.
func DropAll(src, dst, tag int) FaultRule {
	return FaultRule{Src: src, Dst: dst, Tag: tag, DropProb: 1}
}
