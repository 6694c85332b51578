// Package planfree exercises the plan-lifecycle analyzer: local plans
// must reach Free on all paths, and plans escaping into struct fields
// must be freed at their owner's Close.
package planfree

import "mpi"

// Local plan never freed.
func badLocalLeak(c *mpi.Comm) {
	p := mpi.NewExchangePlan[complex128](c, 8) // want `plan from NewExchangePlan may not reach Free on function exit`
	_ = p
}

// Freed on the happy path only: the error return leaks it.
func badLeakOnReturn(c *mpi.Comm, fail bool) error {
	p := mpi.NewExchangePlan[complex128](c, 8) // want `plan from NewExchangePlan may not reach Free on this return path`
	if fail {
		return errFixture
	}
	p.Free()
	return nil
}

// Clean twin: deferred Free covers every path.
func goodDeferredFree(c *mpi.Comm, fail bool) error {
	p := mpi.NewExchangePlan[complex128](c, 8)
	defer p.Free()
	if fail {
		return errFixture
	}
	return nil
}

// Local plans never freed, from a plain constructor and from the
// generic one with its type argument spelled out: both calls construct
// a plan.
func badPlanLeak(c *mpi.Comm) {
	p := mpi.NewReducePlan(c, 1)            // want `plan from NewReducePlan may not reach Free on function exit`
	q := mpi.NewExchangePlan[float64](c, 8) // want `plan from NewExchangePlan may not reach Free on function exit`
	_, _ = p, q
}

// Clean: returning the plan hands ownership to the caller.
func goodReturned(c *mpi.Comm) *mpi.ExchangePlan {
	p := mpi.NewExchangePlan[complex128](c, 8)
	return p
}

type fixtureErr struct{}

func (fixtureErr) Error() string { return "fixture" }

var errFixture error = fixtureErr{}

// engine owns its plans; planfree checks field-escaped plans at the
// package level: every field a plan is stored into must be freed
// somewhere (directly, through an index, or element-wise in a range).
type engine struct {
	ex  *mpi.ExchangePlan
	red *mpi.ReducePlan
	exs []*mpi.ExchangePlan
}

func (e *engine) setup(c *mpi.Comm) {
	e.ex = mpi.NewExchangePlan[complex128](c, 8)
	e.red = mpi.NewReducePlan(c, 1) // want `plan stored in field engine\.red is never freed in this package`
	for i := 0; i < 2; i++ {
		e.exs = append(e.exs, mpi.NewExchangePlan[complex128](c, 8))
	}
}

func (e *engine) Close() {
	e.ex.Free()
	for _, pl := range e.exs {
		pl.Free()
	}
}

// pencilEngine owns one plan per grid direction, the pencil
// transpose's row/column pair; Close frees only the row plan, so the
// column plan's barrier stays registered on every rank of its group.
type pencilEngine struct {
	rowEx *mpi.ExchangePlan
	colEx *mpi.ExchangePlan
}

func (e *pencilEngine) setup(c *mpi.Comm) {
	row, col := c.CartGrid(2, 2)
	e.rowEx = mpi.NewExchangePlan[complex128](row, 8)
	e.colEx = mpi.NewExchangePlan[complex128](col, 8) // want `plan stored in field pencilEngine\.colEx is never freed in this package`
}

func (e *pencilEngine) Close() {
	e.rowEx.Free()
}

// Clean twin: both directions freed at Close.
type pencilEngineOK struct {
	rowEx *mpi.ExchangePlan
	colEx *mpi.ExchangePlan
}

func (e *pencilEngineOK) setup(c *mpi.Comm) {
	row, col := c.CartGrid(2, 2)
	e.rowEx = mpi.NewExchangePlan[complex128](row, 8)
	e.colEx = mpi.NewExchangePlan[complex128](col, 8)
}

func (e *pencilEngineOK) Close() {
	e.rowEx.Free()
	e.colEx.Free()
}

// A generic owner constructed by a generic function and freed by a
// method: the store and the Free see different instantiations of the
// same field, which must still pair up.
type stage[T any] struct {
	buf   []T
	plans [2]*mpi.ExchangePlan
	spare *mpi.ExchangePlan
}

func newStage[T any](c *mpi.Comm, n int) *stage[T] {
	s := &stage[T]{buf: make([]T, n)}
	s.plans[0] = mpi.NewExchangePlan[T](c, n)
	s.plans[1] = s.plans[0]
	s.spare = mpi.NewExchangePlan[T](c, n) // want `plan stored in field stage\.spare is never freed in this package`
	return s
}

func (s *stage[T]) Close() {
	s.plans[0].Free()
	s.plans[1].Free()
}
