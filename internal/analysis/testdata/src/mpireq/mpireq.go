// Package mpireq exercises the mpireq analyzer: dropped nonblocking
// requests, early-return paths that skip Wait, completion via Wait or a
// hand-off, and raw tag literals.
package mpireq

import "mpi"

const evTag = 11

// forget drops the request entirely.
func forget(c *mpi.Comm, send, recv []complex128) {
	req := mpi.Ialltoall(c, send, recv) // want `request from mpi.Ialltoall may not reach Wait on function exit`
	_ = req
}

// early skips Wait on the guard path.
func early(c *mpi.Comm, send, recv []complex128, cond bool) {
	req := mpi.Ialltoall(c, send, recv) // want `request from mpi.Ialltoall may not reach Wait on this return path`
	if cond {
		return
	}
	req.Wait()
}

// waited completes on every path.
func waited(c *mpi.Comm, send, recv []complex128) {
	req := mpi.Ialltoall(c, send, recv)
	defer req.Wait()
}

// fanout hands both requests to a helper: passing a request on is a
// completion hand-off.
func fanout(c *mpi.Comm, a, b []complex128) {
	r1 := mpi.Ialltoall(c, a, a)
	r2 := mpi.Ialltoall(c, b, b)
	waitBoth(r1, r2)
}

func waitBoth(r1, r2 *mpi.Request) {
	r1.Wait()
	r2.Wait()
}

// rawTags passes literal tags where named constants are required.
func rawTags(c *mpi.Comm, buf []float64) {
	mpi.Send(c, 0, 7, buf)     // want `raw tag literal 7 in call to mpi.Send`
	mpi.Recv(c, 1, -3, buf)    // want `raw tag literal 3 in call to mpi.Recv`
	mpi.Send(c, 0, evTag, buf) // named constants pass
	mpi.Recv(c, 1, evTag, buf)
}

// allowedTag documents a deliberate literal with a reason.
func allowedTag(c *mpi.Comm, buf []float64) {
	mpi.Send(c, 0, 9, buf) //psdns:allow mpireq handshake tag fixed by the wire protocol
}

// planExchange pins the plan-scoped collectives clean: Do and the
// asynchrony-tolerant DoBounded return only after completion (no
// request to track), carry no tag parameter, and DoBounded's literal
// staleness bound must not be reported as a raw tag.
func planExchange(c *mpi.Comm, src []complex128) {
	pl := mpi.NewExchangePlanBounded(c, len(src), 2, 1<<30)
	defer pl.Free()
	pl.Do(src, func([][]complex128) {})
	pl.DoBounded(src, func([][]complex128) {}, 2)
	sync := mpi.NewExchangePlan[complex128](c, len(src))
	defer sync.Free()
	sync.Do(src, func([][]complex128) {})
}
