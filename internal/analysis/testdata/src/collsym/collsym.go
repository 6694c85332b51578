// Package collsym exercises the cross-rank collective-symmetry
// analyzer: rank-dependent branches whose arms issue different
// collective sequences are deadlocks; symmetric twins are clean.
package collsym

import "mpi"

// Rank-conditional barrier: rank 0 enters the barrier, everyone else
// never arrives.
func badConditionalBarrier(c *mpi.Comm) {
	if c.Rank() == 0 { // want `rank-dependent branch diverges in collective sequence`
		c.Barrier()
	}
}

// Symmetric twin: the rank-dependent branch only changes local work;
// the barrier is issued unconditionally on every path.
func goodSymmetricBarrier(c *mpi.Comm, log func(string)) {
	if c.Rank() == 0 {
		log("step")
	}
	c.Barrier()
}

// Early return before a collective splits the schedule.
func badEarlyReturn(c *mpi.Comm, buf []float64) {
	if c.Rank() != 0 { // want `rank-dependent branch diverges in collective sequence`
		return
	}
	mpi.Allgather(c, buf, buf)
}

// Early return on non-rank state is fine: every rank sees the same
// predicate value, so the schedule stays uniform.
func goodEarlyReturn(c *mpi.Comm, buf []float64, skip bool) {
	if skip {
		return
	}
	mpi.Allgather(c, buf, buf)
}

// Rank-dependent branches inside loops stay symmetric when both arms
// agree on the collective suffix.
func goodLoop(c *mpi.Comm, log func(string)) {
	for i := 0; i < 4; i++ {
		if c.Rank() == 0 {
			log("iter")
		}
		c.Barrier()
	}
}

// barrierAlways issues the same collective sequence on all of its own
// paths, so its summary inlines at call sites.
func barrierAlways(c *mpi.Comm, n int) {
	if n > 3 {
		c.Barrier()
		return
	}
	c.Barrier()
}

func localOnly(log func(string)) { log("x") }

// Interprocedural symmetric twin: one arm reaches the barrier through
// a same-package helper, the other directly — same sequence.
func goodViaHelper(c *mpi.Comm, n int) {
	if c.Rank() == 0 {
		barrierAlways(c, n)
	} else {
		c.Barrier()
	}
}

// Interprocedural violation: only one arm's helper performs the
// collective.
func badViaHelper(c *mpi.Comm, n int, log func(string)) {
	if c.Rank() == 0 { // want `rank-dependent branch diverges in collective sequence`
		barrierAlways(c, n)
	} else {
		localOnly(log)
	}
}

// A rank flag captured by a closure taints branches inside the
// closure body too.
func badClosureCapture(c *mpi.Comm) func() {
	root := c.Rank() == 0
	return func() {
		if root { // want `rank-dependent branch diverges in collective sequence`
			c.Barrier()
		}
	}
}

// Plan lifecycle calls are collectives: constructing and freeing on
// one rank only diverges the schedule.
func badConditionalFree(c *mpi.Comm, p *mpi.ExchangePlan) {
	if c.Rank() == 0 { // want `rank-dependent branch diverges in collective sequence`
		p.Free()
	}
}

// Plan construction is a collective: building a plan on one rank only
// diverges the schedule, from a plain constructor or from the generic
// one with its type argument spelled out.
func badConditionalPlan(c *mpi.Comm) (p *mpi.ReducePlan) {
	if c.Rank() == 0 { // want `rank-dependent branch diverges in collective sequence`
		p = mpi.NewReducePlan(c, 1)
	}
	return p
}

func badConditionalPlanExplicit(c *mpi.Comm) (p *mpi.ExchangePlan) {
	if c.Rank() == 0 { // want `rank-dependent branch diverges in collective sequence`
		p = mpi.NewExchangePlan[complex128](c, 8)
	}
	return p
}

// Suppressed finding: a deliberately rank-gated collective with a
// reasoned allow directive stays quiet.
func allowedConditional(c *mpi.Comm) {
	//psdns:allow collsym fixture demonstrates a reasoned suppression
	if c.Rank() == 0 {
		c.Barrier()
	}
}

// Pencil grids: a plan exchange on a sub-communicator is as much a
// collective as one on the world; gating the row-group exchange on the
// grid coordinate stalls the whole column of the process grid.
func badRowGatedPencilExchange(c *mpi.Comm, buf []complex128, gather func([][]complex128)) {
	row, col := c.CartGrid(2, 2)
	rowEx := mpi.NewExchangePlan[complex128](row, 8)
	colEx := mpi.NewExchangePlan[complex128](col, 8)
	colEx.Do(buf, gather)
	if c.Rank()/2 == 0 { // want `rank-dependent branch diverges in collective sequence`
		rowEx.Do(buf, gather)
	}
	rowEx.Free()
	colEx.Free()
}

// Symmetric twin: the row and column exchanges of a pencil transpose
// run unconditionally on every rank; only local packing is gated on
// the grid coordinate.
func goodPencilExchangePair(c *mpi.Comm, buf []complex128, gather func([][]complex128), pack func()) {
	row, col := c.CartGrid(2, 2)
	rowEx := mpi.NewExchangePlan[complex128](row, 8)
	colEx := mpi.NewExchangePlan[complex128](col, 8)
	if c.Rank()/2 == 0 {
		pack()
	}
	colEx.Do(buf, gather)
	rowEx.Do(buf, gather)
	rowEx.Free()
	colEx.Free()
}
