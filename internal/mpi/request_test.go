package mpi

import (
	"errors"
	"testing"

	"repro/internal/metrics"
)

// TestWaitIdempotent: repeated Waits on a completed request must not
// record extra samples into the A2A wait histogram — only the first
// Wait observes the blocked time.
func TestWaitIdempotent(t *testing.T) {
	reg := metrics.NewRegistry()
	const p = 2
	if err := RunWith(p, reg, func(c *Comm) {
		send := make([]float64, p*4)
		recv := make([]float64, p*4)
		req := Ialltoall(c, send, recv)
		req.Wait()
		req.Wait()
		req.Wait()
	}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for r := 0; r < p; r++ {
		e, ok := snap.Get("mpi.a2a.wait", r)
		if !ok {
			t.Fatalf("rank %d recorded no wait histogram", r)
		}
		if e.Count != 1 {
			t.Errorf("rank %d wait samples = %d, want 1 (extra Waits must not re-sample)", r, e.Count)
		}
	}
}

// TestDoubleWaitAfterAbort: the first Wait on an aborted request
// re-raises the abort; a second Wait must return silently instead of
// re-panicking (idempotence extends to the failure path).
func TestDoubleWaitAfterAbort(t *testing.T) {
	cause := errors.New("deliberate")
	var first, second any
	err := TryRun(2, func(c *Comm) {
		if c.Rank() == 1 {
			panic(cause) // aborts the world; rank 0's exchange can never finish
		}
		send := make([]float64, 2*4)
		recv := make([]float64, 2*4)
		req := Ialltoall(c, send, recv)
		func() {
			defer func() { first = recover() }()
			req.Wait()
		}()
		func() {
			defer func() { second = recover() }()
			req.Wait()
		}()
		if first != nil && second == nil {
			return // expected shape; fall through to TryRun's error
		}
		panic(errAborted) // keep this rank a silent casualty either way
	})
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 {
		t.Fatalf("err = %v, want RankError for rank 1", err)
	}
	if first != any(errAborted) {
		t.Fatalf("first Wait recovered %v, want the abort sentinel", first)
	}
	if second != nil {
		t.Fatalf("second Wait re-panicked with %v, want silent return", second)
	}
}
