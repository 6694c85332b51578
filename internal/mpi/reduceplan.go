package mpi

import "fmt"

// ReducePlan is a persistent allreduce for short float64 vectors: the
// zero-allocation counterpart of AllreduceSum/AllreduceMax, built on a
// registered ExchangePlan. Per-step physics controllers (band forcing's
// shell energies, injection-rate accounting) sit inside the solver's
// hot loop, where the one-shot allreduce's fresh accumulator and
// publication would show up as per-step allocations; a plan
// registers everything once at construction and each Sum/Max then
// publishes the caller's vector and folds every rank's into a
// plan-owned buffer between the plan's two barriers, allocation-free.
//
// Contract: collective construction (every rank, same point in the
// collective order, same n), collective Sum/Max calls in the same
// order, and Free when done. The fold visits ranks in rank order, so
// the result is bitwise-identical on every rank and across repeated
// runs (the same guarantee allreduce gives).
type ReducePlan struct {
	pl  *ExchangePlan[float64]
	acc []float64
	// sum and max are the prebuilt fold gathers: acc ← srcs[0], then
	// each later rank's vector folded in.
	sum, max func(srcs [][]float64)
}

// NewReducePlan registers a persistent allreduce of n-element float64
// vectors over c (collective). Each call is charged (P−1)·n elements
// of wire traffic: every peer's vector.
func NewReducePlan(c *Comm, n int) *ReducePlan {
	if n <= 0 {
		panic(fmt.Sprintf("mpi: rank %d: reduce plan needs n > 0, got %d", c.rank, n))
	}
	r := &ReducePlan{pl: NewExchangePlan[float64](c, n), acc: make([]float64, n)}
	r.pl.SetWire((c.Size() - 1) * n)
	r.sum = func(srcs [][]float64) {
		copy(r.acc, srcs[0])
		for _, src := range srcs[1:] {
			for i, x := range src {
				r.acc[i] += x
			}
		}
	}
	r.max = func(srcs [][]float64) {
		copy(r.acc, srcs[0])
		for _, src := range srcs[1:] {
			for i, x := range src {
				if x > r.acc[i] {
					r.acc[i] = x
				}
			}
		}
	}
	return r
}

// Sum replaces each element of v by its sum over all ranks, in place
// on every rank (collective, allocation-free). len(v) must be the
// plan's registered length.
//
//psdns:hotpath
func (r *ReducePlan) Sum(v []float64) { r.reduce(v, r.sum) }

// Max replaces each element of v by its maximum over all ranks, in
// place on every rank (collective, allocation-free).
//
//psdns:hotpath
func (r *ReducePlan) Max(v []float64) { r.reduce(v, r.max) }

// reduce publishes v and runs fold over every rank's vector. Peers
// read v until the plan's exit barrier, so the result lands in v only
// after Do returns.
//
//psdns:hotpath
func (r *ReducePlan) reduce(v []float64, fold func(srcs [][]float64)) {
	if len(v) != len(r.acc) {
		panic(fmt.Sprintf("mpi: reduce plan registered for %d elements, got %d", len(r.acc), len(v)))
	}
	r.pl.Do(v, fold)
	copy(v, r.acc)
}

// Free releases the plan (collective).
func (r *ReducePlan) Free() { r.pl.Free() }
