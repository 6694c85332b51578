// Package mpi is a fixture stub with the runtime API shape the
// analyzers match on: package name "mpi", the one-shot collectives and
// the persistent plans.
package mpi

type Comm struct{ rank int }

func (c *Comm) Rank() int { return c.rank }
func (c *Comm) Size() int { return 1 }
func (c *Comm) Barrier()  {}

// Split and CartGrid mirror the sub-communicator constructors; both
// are collectives over the parent, and the communicators they return
// carry collectives of their own (the pencil row/column exchanges).
func (c *Comm) Split(color, key int) *Comm           { return &Comm{} }
func (c *Comm) CartGrid(pr, pc int) (row, col *Comm) { return &Comm{}, &Comm{} }

func Allgather(c *Comm, send, recv []float64) {}

// ExchangePlan mirrors the persistent exchange plan: its Do and
// DoBounded entry points are collectives. NewExchangePlan is generic like the real
// constructor, so fixtures spell its type argument, NewExchangePlan[T].
type ExchangePlan struct{}

func NewExchangePlan[T any](c *Comm, slabLen int) *ExchangePlan { return &ExchangePlan{} }
func NewExchangePlanBounded(c *Comm, slabLen, maxStale int, deadlineNs int64) *ExchangePlan {
	return &ExchangePlan{}
}
func (p *ExchangePlan) Do(src []complex128, gather func([][]complex128))                   {}
func (p *ExchangePlan) DoBounded(src []complex128, gather func([][]complex128), stale int) {}
func (p *ExchangePlan) SetSite(site string)                                                {}
func (p *ExchangePlan) Free()                                                              {}

// ReducePlan mirrors the persistent reduction plan, a non-generic
// constructor beside NewExchangePlan[T].
type ReducePlan struct{ pl *ExchangePlan }

func NewReducePlan(c *Comm, n int) *ReducePlan { return &ReducePlan{} }
func (r *ReducePlan) Sum(vals []float64)       {}
func (r *ReducePlan) Max(vals []float64)       {}
func (r *ReducePlan) Free()                    {}
