package pfft

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/exchange"
	"repro/internal/mpi"
)

// replayLog records the order in which a rank's ops complete and its
// unit exchanges start, and perturbs the schedule by yielding a seeded
// number of times before each op.
type replayLog struct {
	mu  sync.Mutex
	rng *rand.Rand
	seq []string
}

func (l *replayLog) add(what string, ip, g int) {
	l.mu.Lock()
	l.seq = append(l.seq, fmt.Sprintf("%s(%d,%d)", what, ip, g))
	l.mu.Unlock()
}

func (l *replayLog) jitter() {
	l.mu.Lock()
	k := l.rng.Intn(4)
	l.mu.Unlock()
	for ; k > 0; k-- {
		runtime.Gosched()
	}
}

// index reports where an entry was logged, or -1.
func (l *replayLog) index(what string, ip, g int) int {
	want := fmt.Sprintf("%s(%d,%d)", what, ip, g)
	for i, s := range l.seq {
		if s == want {
			return i
		}
	}
	return -1
}

// loggedWire logs the start of every unit exchange.
type loggedWire struct {
	wire
	l *replayLog
}

func (w loggedWire) run(d exchange.Dir, st exchange.Strategy, u int) {
	w.l.add("unit", u, 0)
	w.wire.run(d, st, u)
}

// The Fig 4 edges of a transposing region must hold under any
// interleaving of the host and the stream workers. Where the wire packs
// (the f32 wire, whose pack narrows) pack(ip, g) runs after
// compute(ip, g) and unit ip's exchange starts after every device's
// pack(ip); on the f64 wire no pack runs at all and unit ip starts
// after every device's compute(ip), under every strategy. Under
// PerSlab the one unit waits for every cell of the slab, and a unit
// past N/P planes is never started.
func TestReplayOrderHoldsUnderScheduleJitter(t *testing.T) {
	const n, p = 16, 2
	for _, ngpu := range []int{1, 2} {
		for _, np := range []int{1, 2, 5, 9} { // N/P = 8
			for _, st := range exchange.Concrete {
				for _, single := range []bool{false, true} {
					for _, gran := range []Granularity{PerPencil, PerSlab} {
						name := fmt.Sprintf("ngpu%d_np%d_%s_single%v_gran%d", ngpu, np, st, single, gran)
						packs := single
						if err := mpi.TryRun(p, func(c *mpi.Comm) {
							a := NewAsyncSlabReal(c, n, Options{NP: np, NGPU: ngpu, Granularity: gran, Exchange: st, SingleComm: single})
							defer a.Close()
							checkReplayOrder(a, name, packs, int64(100*np+10*ngpu+c.Rank()))
						}); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
	}
}

// checkReplayOrder is one rank of TestReplayOrderHoldsUnderScheduleJitter.
func checkReplayOrder(a *SlabReal, name string, packs bool, seed int64) {
	ngpu := len(a.gpus)
	l := &replayLog{rng: rand.New(rand.NewSource(seed))}
	a.wire = loggedWire{a.wire, l}
	for d := range a.regT {
		for i := range a.regT[d].cells {
			cl, ip, g := &a.regT[d].cells[i], i/ngpu, i%ngpu
			compute := cl.compute.Run
			cl.compute.Run = func() { l.jitter(); compute(); l.add("compute", ip, g) }
			if pack := cl.pack.Run; pack != nil {
				cl.pack.Run = func() { l.jitter(); pack(); l.add("pack", ip, g) }
			}
		}
	}
	phys := make([]float64, a.PhysicalLen())
	four := make([]complex128, a.FourierLen())
	for iter := 0; iter < 6; iter++ {
		l.seq = l.seq[:0]
		if iter%2 == 0 {
			a.PhysicalToFourier(four, phys)
		} else {
			a.FourierToPhysical(phys, four)
		}
		for i := range a.regT[0].cells {
			ip, g := i/ngpu, i%ngpu
			ci, pi := l.index("compute", ip, g), l.index("pack", ip, g)
			if ci < 0 || (pi >= 0) != packs {
				panic(fmt.Sprintf("%s: cell (%d,%d) logged compute %d pack %d", name, ip, g, ci, pi))
			}
			if packs && pi < ci {
				panic(fmt.Sprintf("%s: pack(%d,%d) ran before its compute: %v", name, ip, g, l.seq))
			}
			ready := max(ci, pi)
			u := ip
			if a.gran == PerSlab {
				u = 0
			}
			ui := l.index("unit", u, 0)
			if a.units[u].width() == 0 {
				if ui >= 0 {
					panic(fmt.Sprintf("%s: empty unit %d was exchanged: %v", name, u, l.seq))
				}
				continue
			}
			if ui < ready {
				panic(fmt.Sprintf("%s: unit %d's exchange started before cell (%d,%d) was ready: %v", name, u, ip, g, l.seq))
			}
		}
	}
}
