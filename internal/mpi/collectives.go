package mpi

import (
	"fmt"
	"unsafe"
)

// sliceBytes reports the wire size of n elements of T, the quantity
// every collective accounts into the metrics registry.
func sliceBytes[T any](n int) int64 {
	var z T
	return int64(n) * int64(unsafe.Sizeof(z))
}

// Send delivers a copy of buf to dst with the given tag. It is
// buffered: it returns as soon as the copy is queued, so the caller may
// reuse buf immediately (MPI_Bsend semantics, which is how Spectrum MPI
// behaves below the eager limit). Self-sends are delivered but not
// charged as wire bytes (see the accounting convention in doc.go).
func Send[T any](c *Comm, dst, tag int, buf []T) {
	c.maybeCrash()
	m := c.m()
	m.p2pMsgs.Inc()
	if dst != c.rank {
		m.p2pBytes.Add(sliceBytes[T](len(buf)))
	}
	cp := make([]T, len(buf))
	copy(cp, buf)
	c.box(c.rank, dst).put(message{key: matchKey{tag: tag}, data: cp, bytes: sliceBytes[T](len(cp))})
}

// Recv blocks until a message from src with the given tag arrives and
// copies it into buf, returning the element count received.
func Recv[T any](c *Comm, src, tag int, buf []T) int {
	c.maybeCrash()
	data := c.box(src, c.rank).get(matchKey{tag: tag}).([]T)
	if len(data) > len(buf) {
		panic(fmt.Sprintf("mpi: rank %d: recv from %d (tag %d): buffer too small: %d < %d",
			c.rank, src, tag, len(buf), len(data)))
	}
	copy(buf, data)
	return len(data)
}

// Allgather concatenates each rank's equally-sized send block into
// recv on every rank: recv[r*len(send):(r+1)*len(send)] holds rank r's
// contribution. Each rank is charged (Size-1)×len wire bytes; the
// loopback copy to itself is free.
func Allgather[T any](c *Comm, send []T, recv []T) {
	c.maybeCrash()
	p := c.Size()
	if len(recv) != p*len(send) {
		panic(fmt.Sprintf("mpi: rank %d: allgather recv length %d != %d",
			c.rank, len(recv), p*len(send)))
	}
	m := c.m()
	m.collMsgs.Inc()
	m.collBytes.Add(sliceBytes[T](len(send)) * int64(p-1))
	seq := c.nextSeq()
	key := matchKey{tag: seq, coll: true}
	cp := make([]T, len(send))
	copy(cp, send)
	for r := 0; r < p; r++ {
		c.box(c.rank, r).put(message{key: key, data: cp, bytes: sliceBytes[T](len(cp))})
	}
	n := len(send)
	for r := 0; r < p; r++ {
		data := c.box(r, c.rank).get(key).([]T)
		copy(recv[r*n:(r+1)*n], data)
	}
}

// Gather collects each rank's equally-sized block at root:
// on root, recv[r*len(send):(r+1)*len(send)] holds rank r's block;
// on other ranks recv is ignored and may be nil (collective). Each
// non-root rank is charged len(send) wire bytes; the root's loopback
// contribution is free.
func Gather[T any](c *Comm, root int, send []T, recv []T) {
	c.maybeCrash()
	seq := c.nextSeq()
	key := matchKey{tag: seq, coll: true}
	m := c.m()
	m.collMsgs.Inc()
	if c.rank != root {
		m.collBytes.Add(sliceBytes[T](len(send)))
	}
	cp := make([]T, len(send))
	copy(cp, send)
	c.box(c.rank, root).put(message{key: key, data: cp, bytes: sliceBytes[T](len(cp))})
	if c.rank != root {
		return
	}
	p := c.Size()
	if len(recv) != p*len(send) {
		panic(fmt.Sprintf("mpi: rank %d: gather recv length %d != %d", c.rank, len(recv), p*len(send)))
	}
	n := len(send)
	for r := 0; r < p; r++ {
		data := c.box(r, root).get(key).([]T)
		copy(recv[r*n:(r+1)*n], data)
	}
}

// AllreduceSum sums each element of v across all ranks, in place on
// every rank.
func AllreduceSum(c *Comm, v []float64) {
	allreduce(c, v, func(a, b float64) float64 { return a + b })
}

// AllreduceMax replaces each element of v by the maximum over all
// ranks, in place on every rank.
func AllreduceMax(c *Comm, v []float64) {
	allreduce(c, v, func(a, b float64) float64 {
		if b > a {
			return b
		}
		return a
	})
}

func allreduce(c *Comm, v []float64, op func(a, b float64) float64) {
	all := make([]float64, c.Size()*len(v))
	Allgather(c, v, all)
	n := len(v)
	for i := 0; i < n; i++ {
		acc := all[i]
		for r := 1; r < c.Size(); r++ {
			acc = op(acc, all[r*n+i])
		}
		v[i] = acc
	}
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
// src land at recvdispls[src]. Wire bytes exclude the rank's own
// diagonal block.
func Alltoallv[T any](c *Comm, send []T, sendcounts, senddispls []int, recv []T, recvcounts, recvdispls []int) {
	c.maybeCrash()
	p := c.Size()
	seq := c.nextSeq()
	key := matchKey{tag: seq, coll: true}
	m := c.m()
	m.a2aMsgs.Inc()
	total := 0
	for dst := 0; dst < p; dst++ {
		total += sendcounts[dst]
		blk := make([]T, sendcounts[dst])
		copy(blk, send[senddispls[dst]:senddispls[dst]+sendcounts[dst]])
		c.box(c.rank, dst).put(message{key: key, data: blk, bytes: sliceBytes[T](len(blk))})
	}
	m.a2aBytes.Add(sliceBytes[T](total - sendcounts[c.rank]))
	stop := m.a2aWait.Start()
	for src := 0; src < p; src++ {
		data := c.box(src, c.rank).get(key).([]T)
		if len(data) != recvcounts[src] {
			panic(fmt.Sprintf("mpi: rank %d: alltoallv count mismatch from %d: got %d want %d",
				c.rank, src, len(data), recvcounts[src]))
		}
		copy(recv[recvdispls[src]:recvdispls[src]+recvcounts[src]], data)
	}
	stop()
}
