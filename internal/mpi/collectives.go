package mpi

import (
	"fmt"
	"time"
	"unsafe"

	"repro/internal/metrics"
)

// sliceBytes reports the wire size of n elements of T, the quantity
// every collective accounts into the metrics registry.
func sliceBytes[T any](n int) int64 {
	var z T
	return int64(n) * int64(unsafe.Sizeof(z))
}

// rendezvous is the reusable synchronisation state of one stream of
// collective rounds: the barrier every round enters and leaves
// through, and the fates of the world's message faults. Each
// ExchangePlan holds one; the world holds one for all its one-shot
// collectives. Every barrier of a rendezvous is registered with the
// world, so the abort cascade wakes it and the watchdog sees ranks
// blocked in it.
type rendezvous struct {
	bar *barrier
	// fates[src*P+dst] is how src's publication of the current round
	// reaches reader dst; nil when the world has no message rules.
	// Written by src before the entry barrier, read by dst after it,
	// rewritten only once dst has left the exit barrier — the
	// discipline of the publication table itself.
	fates []slabFate
}

// slabFate is one publication's delivery to one reader: visible from
// at on, or never.
type slabFate struct {
	at      time.Time
	dropped bool
}

func newRendezvous(w *world) rendezvous {
	rv := rendezvous{bar: newBarrier(w.size)}
	if w.faults != nil && w.faults.rules != nil {
		rv.fates = make([]slabFate, w.size*w.size)
	}
	return rv
}

// roundHists are the histograms a round records its phases into, in
// nanoseconds: the entry barrier, the gather and the exit barrier. The
// zero value records nothing.
type roundHists struct {
	entry, gather, exit *metrics.Histogram
}

// exchange is the runtime's one collective round, which
// ExchangePlan.Do and every one-shot collective run alike:
//
//  1. draw how this rank's publication reaches each reader under the
//     world's message faults (msgBytes(dst) is the size of what reader
//     dst takes from it, negative when dst reads nothing);
//  2. publish mine at table[rank];
//  3. the entry barrier: every rank's publication is visible, and no
//     rank still reads the previous round's table;
//  4. wait until every peer's publication has reached this rank
//     (awaitFates);
//  5. gather over the whole table, reading peers' buffers in place;
//  6. the exit barrier: every gather is done, so each caller may
//     overwrite what it published the moment exchange returns.
//
// Collective: every rank of the communicator calls it for the same
// round of the same rendezvous.
//
//psdns:hotpath
func exchange[S any](c *Comm, rv *rendezvous, seq int, table []S, mine S, msgBytes func(dst int) int64, gather func(table []S), h roundHists) {
	faulty := rv.fates != nil
	var entered time.Time
	if faulty {
		entered = time.Now()
		rv.drawFates(c, seq, entered, msgBytes)
	}
	table[c.rank] = mine
	enabled := h.gather.Enabled()
	var t0, t1, t2 time.Time
	if enabled {
		t0 = time.Now()
	}
	rv.bar.wait(c.w, c.rank, seq)
	if faulty {
		rv.awaitFates(c, seq, entered)
	}
	if enabled {
		t1 = time.Now()
	}
	gather(table)
	if enabled {
		t2 = time.Now()
	}
	rv.bar.wait(c.w, c.rank, seq)
	if enabled {
		h.entry.Observe(float64(t1.Sub(t0).Nanoseconds()))
		h.gather.Observe(float64(t2.Sub(t1).Nanoseconds()))
		h.exit.Observe(float64(time.Since(t2).Nanoseconds()))
	}
	// A finished round is progress: the deadlock detector's quiescence
	// window restarts.
	c.w.progressed()
}

// drawFates draws, as this rank publishes, how its publication reaches
// each reader: one outcome per reader from the (src, dst) fault
// stream, keyed by the round's sequence number and sized by what the
// reader takes. The draws run on the publishing rank's goroutine in
// program order, so a seed fixes every fate.
func (rv *rendezvous) drawFates(c *Comm, seq int, now time.Time, msgBytes func(dst int) int64) {
	f, p, me := c.w.faults, c.Size(), c.rank
	for dst := 0; dst < p; dst++ {
		if dst == me {
			continue
		}
		bytes := msgBytes(dst)
		if bytes < 0 {
			rv.fates[me*p+dst] = slabFate{} // nothing to deliver
			continue
		}
		drop, dup, delay := f.outcome(me, dst, seq, bytes)
		if drop {
			f.drops[me].Inc()
		}
		if dup {
			f.dups[me].Inc()
		}
		if delay > 0 {
			f.delays[me].Inc()
		}
		rv.fates[me*p+dst] = slabFate{at: now.Add(delay), dropped: drop}
	}
}

// awaitFates holds this rank's gather until every peer's publication
// is visible to it. A delayed one is a bounded sleep, counted as
// pending so the deadlock detector never mistakes it for quiescence.
// A dropped one never arrives: the rank blocks in a watchdog-registered
// wait for that peer until the world is aborted, and raises its abort
// cause. The wait is dated from the rank's entry into the round, so
// the peers that did get their publications — parked in the exit
// barrier after their own gathers — are younger, and the watchdog
// blames the starved reader.
func (rv *rendezvous) awaitFates(c *Comm, seq int, entered time.Time) {
	w, p, me := c.w, c.Size(), c.rank
	for src := 0; src < p; src++ {
		if src == me {
			continue
		}
		fate := rv.fates[src*p+me]
		if fate.dropped {
			tok := w.watchEnter(blockedOp{rank: me, op: opWait, peer: src, tag: seq, since: entered})
			for !w.isAborted() {
				time.Sleep(boundedPoll)
			}
			w.watchExit(tok)
			panic(w.abortCause(me))
		}
		if d := time.Until(fate.at); d > 0 {
			w.pending.Add(1)
			time.Sleep(d)
			w.pending.Add(-1)
		}
	}
}

// pub is one rank's entry in its world's one-shot publication table:
// the collective it is in and the buffer its peers read in place, with
// the per-destination layout of an all-to-all.
type pub struct {
	op   string
	seq  int
	data any // the published []T
	// counts[dst] elements from displs[dst] are dst's block; nil when
	// every reader takes all of data.
	counts, displs []int
}

// oneShot runs one one-shot collective as a round of the world's
// rendezvous over its publication table. This rank publishes send —
// with the per-destination layout sendcounts/senddispls, nil when every
// reader takes all of send — and, between the barriers, hands visit
// the block it takes from each rank, in rank order. root ≥ 0 makes
// root the only reader (Gather). This rank expects recvcounts[src]
// elements from src, or len(send) when recvcounts is nil.
//
// A peer's entry in another collective, at another sequence number,
// of another element type or of the wrong length breaks the
// collective contract: the reader panics, naming both ranks and the
// collective, instead of reading a short or stale block.
func oneShot[T any](c *Comm, op string, root int, send []T, sendcounts, senddispls, recvcounts []int, visit func(src int, block []T)) {
	seq := c.nextSeq()
	me, w := c.rank, c.w
	msgBytes := func(dst int) int64 {
		switch {
		case root >= 0 && dst != root:
			return -1
		case sendcounts != nil:
			return sliceBytes[T](sendcounts[dst])
		}
		return sliceBytes[T](len(send))
	}
	mine := pub{op: op, seq: seq, data: send, counts: sendcounts, displs: senddispls}
	exchange(c, &w.coll, seq, w.pubs, mine, msgBytes, func(pubs []pub) {
		if root >= 0 && me != root {
			return
		}
		for src := range pubs {
			pb := &pubs[src]
			data, ok := pb.data.([]T)
			if pb.op != op || pb.seq != seq || !ok {
				panic(fmt.Sprintf("mpi: rank %d is in %s (seq %d, %T) but rank %d in %s (seq %d, %T): collective contract violation",
					me, op, seq, send, src, pb.op, pb.seq, pb.data))
			}
			if pb.counts != nil {
				data = data[pb.displs[me] : pb.displs[me]+pb.counts[me]]
			}
			want := len(send)
			if recvcounts != nil {
				want = recvcounts[src]
			}
			if len(data) != want {
				panic(fmt.Sprintf("mpi: rank %d: %s seq %d: rank %d sends %d elements, rank %d expects %d: collective contract violation",
					me, op, seq, src, len(data), me, want))
			}
			visit(src, data)
		}
	}, roundHists{})
	// Past the exit barrier no peer reads the entry: drop it, so the
	// table does not keep the caller's buffer alive.
	w.pubs[me] = pub{}
}

// Allgather concatenates each rank's equally-sized send block into
// recv on every rank: recv[r*len(send):(r+1)*len(send)] holds rank r's
// contribution, read in place from rank r's send. send and recv must
// not alias. Each rank is charged (Size-1)×len wire bytes; the
// loopback copy to itself is free.
func Allgather[T any](c *Comm, send []T, recv []T) {
	c.maybeCrash()
	p, n := c.Size(), len(send)
	if len(recv) != p*n {
		panic(fmt.Sprintf("mpi: rank %d: allgather recv length %d != %d", c.rank, len(recv), p*n))
	}
	m := c.m()
	m.collMsgs.Inc()
	m.collBytes.Add(sliceBytes[T](n) * int64(p-1))
	oneShot(c, "Allgather", -1, send, nil, nil, nil, func(src int, block []T) {
		copy(recv[src*n:(src+1)*n], block)
	})
}

// Gather collects each rank's equally-sized block at root:
// on root, recv[r*len(send):(r+1)*len(send)] holds rank r's block;
// on other ranks recv is ignored and may be nil (collective). Each
// non-root rank is charged len(send) wire bytes; the root's loopback
// contribution is free.
func Gather[T any](c *Comm, root int, send []T, recv []T) {
	c.maybeCrash()
	p, n := c.Size(), len(send)
	m := c.m()
	m.collMsgs.Inc()
	if c.rank != root {
		m.collBytes.Add(sliceBytes[T](n))
	} else if len(recv) != p*n {
		panic(fmt.Sprintf("mpi: rank %d: gather recv length %d != %d", c.rank, len(recv), p*n))
	}
	oneShot(c, "Gather", root, send, nil, nil, nil, func(src int, block []T) {
		copy(recv[src*n:(src+1)*n], block)
	})
}

// AllreduceSum sums each element of v across all ranks, in place on
// every rank.
func AllreduceSum(c *Comm, v []float64) {
	allreduce(c, "AllreduceSum", v, func(a, b float64) float64 { return a + b })
}

// AllreduceMax replaces each element of v by the maximum over all
// ranks, in place on every rank.
func AllreduceMax(c *Comm, v []float64) {
	allreduce(c, "AllreduceMax", v, func(a, b float64) float64 {
		if b > a {
			return b
		}
		return a
	})
}

// allreduce folds every rank's v in rank order — the order that makes
// the result bitwise-identical on every rank — into a fresh
// accumulator, and writes it into v once no peer reads v any more.
// Each rank is charged (Size-1)×len(v) wire bytes, as Allgather.
func allreduce(c *Comm, op string, v []float64, fold func(a, b float64) float64) {
	c.maybeCrash()
	m := c.m()
	m.collMsgs.Inc()
	m.collBytes.Add(sliceBytes[float64](len(v)) * int64(c.Size()-1))
	acc := make([]float64, len(v))
	oneShot(c, op, -1, v, nil, nil, nil, func(src int, block []float64) {
		if src == 0 {
			copy(acc, block)
			return
		}
		for i, x := range block {
			acc[i] = fold(acc[i], x)
		}
	})
	copy(v, acc)
}

// Alltoall transposes equally-sized blocks between all ranks of the
// communicator: the block send[dst*bs:(dst+1)*bs] lands at
// recv[src*bs:(src+1)*bs] on rank dst, where bs = len(send)/P. This is
// the MPI_ALLTOALL at the heart of every distributed transpose in the
// paper: Alltoallv with every count bs. send and recv must not alias.
func Alltoall[T any](c *Comm, send, recv []T) {
	p := c.Size()
	if len(send)%p != 0 || len(recv) != len(send) {
		panic(fmt.Sprintf("mpi: rank %d: alltoall buffer sizes %d/%d invalid for %d ranks",
			c.rank, len(send), len(recv), p))
	}
	counts, displs := make([]int, p), make([]int, p)
	for r := range counts {
		counts[r], displs[r] = len(send)/p, r*len(send)/p
	}
	Alltoallv(c, send, counts, displs, recv, counts, displs)
}

// Alltoallv is the varying-counts all-to-all: sendcounts[dst] elements
// beginning at senddispls[dst] go to dst; recvcounts[src] elements from
// src land at recvdispls[src]. Each rank reads its block of every
// peer's send in place; send and recv must not alias. Wire bytes
// exclude the rank's own diagonal block.
func Alltoallv[T any](c *Comm, send []T, sendcounts, senddispls []int, recv []T, recvcounts, recvdispls []int) {
	c.maybeCrash()
	m := c.m()
	m.a2aMsgs.Inc()
	total := 0
	for _, n := range sendcounts {
		total += n
	}
	m.a2aBytes.Add(sliceBytes[T](total - sendcounts[c.rank]))
	stop := m.a2aWait.Start()
	oneShot(c, "Alltoallv", -1, send, sendcounts, senddispls, recvcounts, func(src int, block []T) {
		copy(recv[recvdispls[src]:recvdispls[src]+recvcounts[src]], block)
	})
	stop()
}
