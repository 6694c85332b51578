package tuning

import (
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/exchange"
	"repro/internal/hw"
	"repro/internal/mpi"
	"repro/internal/pool"
)

// trials is the best-of-k depth of the trial protocol: each (direction,
// strategy) is timed k times and only its best wall time competes, so
// a single scheduler hiccup cannot disqualify a fast configuration.
const trials = 3

// engine is what the tuner asks of a trial engine besides its Target
// closures: the size of the slab its trials run on, and Close.
type engine interface {
	FourierLen() int
	Close()
}

// Target is one tuned engine as the tuner sees it: the cache key's
// engine name and transform size, the defaults substituted into the
// space's empty NP and Workers dimensions, and three closures — the
// engine's sub-space, its constructor and its trial body. Everything
// else (cache, grouping, timing, resolve, the winner's construction) is
// Tune's.
type Target[E engine] struct {
	// Engine names the tuned constructor in the cache key ("slab",
	// "pencil-PRxPC", "real", "async"): engines that search different
	// sub-spaces must never replay each other's winners.
	Engine      string
	N           int
	NP, Workers int
	// Collapse, when set, maps an enumerated point onto the engine's
	// sub-space, zeroing the dimensions the engine does not have.
	// Points that collapse onto an earlier one are dropped.
	Collapse func(Point) Point
	// Build constructs the engine pinned to every dimension of pt.
	// Collective.
	Build func(pt Point) E
	// Trial runs direction d's exchanges under st on eng — no FFT
	// passes — with four a pooled Fourier slab of eng.FourierLen()
	// elements whose contents are irrelevant to the timing. Collective.
	Trial func(eng E, d exchange.Dir, st exchange.Strategy, four []complex128)
}

// Tune is the one trial loop: it returns t's engine built from the
// point of cfg.Space that measures fastest across the ranks of comm,
// through the same t.Build call a cache hit makes.
//
//   - Key and lookup: (engine, N, P, GOMAXPROCS, machine fingerprint),
//     looked up collectively. A hit whose decomposition no candidate
//     has is a miss, so a pencil winner never replays under a slab key.
//   - Candidates: cfg.Space.Points(t.NP, t.Workers), through t.Collapse
//     where set, duplicates dropped, space order kept.
//   - Trial engines: one live engine per contiguous group of points
//     that differ only in their strategies, built pinned Fused in both
//     directions — every strategy is a zero-copy gather and none owns
//     buffers of its own, so that engine can run every strategy — and
//     closed before the next group's is built.
//   - Trials: each (direction, strategy) of a group is timed best of
//     3, barrier-fenced; a point scores its yz time plus its zy time,
//     so the yz × zy cross product costs 2 × |strategies| × 3 trials
//     per group (12 over the two concrete strategies), not
//     |strategies|².
//   - Resolve: max over ranks, argmin, ties to the earlier point (the
//     space lists the safe defaults first); the winner is stored.
//
// Collective.
func Tune[E engine](comm *mpi.Comm, cfg Config, t Target[E]) E {
	var pts []Point
	for _, pt := range cfg.Space.Points(t.NP, t.Workers) {
		if t.Collapse != nil {
			pt = t.Collapse(pt)
		}
		if !slices.Contains(pts, pt) {
			pts = append(pts, pt)
		}
	}
	key := Key{
		Engine:   t.Engine,
		N:        t.N,
		P:        comm.Size(),
		Maxprocs: runtime.GOMAXPROCS(0),
		Machine:  hw.Fingerprint(),
	}
	if pt, ok := cfg.Lookup(comm, key); ok && slices.ContainsFunc(pts, func(c Point) bool { return c.Decomp() == pt.Decomp() }) {
		return t.Build(pt)
	}
	type trial struct {
		d  exchange.Dir
		st exchange.Strategy
	}
	var (
		eng   E
		four  []complex128
		group Point
		times map[trial]float64
	)
	mine := make([]float64, len(pts))
	for i, pt := range pts {
		if g := trialPoint(pt); times == nil || g != group {
			if times != nil {
				eng.Close()
				pool.PutComplex(four)
			}
			eng, group, times = t.Build(g), g, map[trial]float64{}
			four = pool.GetComplex(eng.FourierLen())
		}
		for d, st := range [2]exchange.Strategy{exchange.YZ: pt.Strategy, exchange.ZY: pt.StrategyZY} {
			k := trial{exchange.Dir(d), st}
			if _, ok := times[k]; !ok {
				times[k] = trialBest(comm, func() { t.Trial(eng, k.d, k.st, four) })
			}
			mine[i] += times[k]
		}
	}
	eng.Close()
	pool.PutComplex(four)
	win, cost := resolveTimes(comm, mine)
	cfg.Store(comm, key, pts[win], cost)
	return t.Build(pts[win])
}

// trialPoint is the engine a point's trials run on: the point with
// both directions pinned Fused.
func trialPoint(pt Point) Point {
	pt.Strategy, pt.StrategyZY = exchange.Fused, exchange.Fused
	return pt
}

// trialBest runs the collective barrier-fenced best-of-k trial for one
// (direction, strategy) and returns this rank's best wall time in
// seconds. run must be a collective exchange body (every rank calls
// trialBest for the same trial at the same point in its collective
// order); the barrier in front of every repetition keeps ranks aligned
// so no rank times a peer's leftover skew. Every run is counted in the
// per-rank tune.trials counter — the metric warm-cache tests assert
// stays flat when a cache hit skips the trials.
func trialBest(c *mpi.Comm, run func()) float64 {
	count := c.Metrics().CounterRank("tune.trials", c.Rank())
	best := math.Inf(1)
	for i := 0; i < trials; i++ {
		c.Barrier()
		t0 := time.Now()
		run()
		if dt := time.Since(t0).Seconds(); dt < best {
			best = dt
		}
		count.Inc()
	}
	return best
}

// resolveTimes gathers each rank's per-candidate times and resolves the
// collectively-agreed winner with resolveIndex. Every rank computes the
// same (index, cost) from the same gathered table, so no extra
// agreement round is needed. Collective.
func resolveTimes(c *mpi.Comm, mine []float64) (int, float64) {
	all := make([]float64, len(mine)*c.Size())
	mpi.Allgather(c, mine, all)
	perRank := make([][]float64, c.Size())
	for r := range perRank {
		perRank[r] = all[r*len(mine) : (r+1)*len(mine)]
	}
	return resolveIndex(len(mine), perRank)
}

// resolveIndex picks the winner from trial times gathered across
// ranks: perRank[r][i] is rank r's time (seconds) for candidate i of
// ncands. A collective exchange completes when its slowest rank does,
// so each candidate's cost is its max over ranks, and the winner is the
// index whose cost is smallest, returned with that cost; ties break
// toward the earlier candidate, so every rank resolves the same index
// from the same gathered table. Non-positive times (a rank that could
// not measure) disqualify a candidate. The returned cost is -1 when
// every candidate was disqualified (the winner then defaults to index
// 0).
//
// Every candidate is an exact strategy, so the argmin changes only the
// speed of the pinned engine, never its answer; ties go to the earlier
// point, the space's conservative default.
func resolveIndex(ncands int, perRank [][]float64) (int, float64) {
	if ncands == 0 {
		panic("tuning: resolve with no candidates")
	}
	best, bestCost := 0, -1.0
	for i := 0; i < ncands; i++ {
		cost, ok := 0.0, true
		for _, times := range perRank {
			t := times[i]
			if t <= 0 {
				ok = false
				break
			}
			if t > cost {
				cost = t
			}
		}
		if !ok {
			continue
		}
		if bestCost < 0 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	return best, bestCost
}
