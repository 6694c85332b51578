// Package mpireq exercises the mpireq analyzer: raw tag literals, a
// documented exception, and plan calls whose integer arguments are not
// tags.
package mpireq

import "mpi"

const evTag = 11

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
// asynchrony-tolerant DoBounded carry no tag parameter, and
// DoBounded's literal staleness bound must not be reported as a raw
// tag.
func planExchange(c *mpi.Comm, src []complex128) {
	pl := mpi.NewExchangePlanBounded(c, len(src), 2, 1<<30)
	defer pl.Free()
	pl.Do(src, func([][]complex128) {})
	pl.DoBounded(src, func([][]complex128) {}, 2)
	sync := mpi.NewExchangePlan[complex128](c, len(src))
	defer sync.Free()
	sync.Do(src, func([][]complex128) {})
}
