package core

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

func (w loggedWire) post(u int) *mpi.Request {
	w.l.add("unit", u, 0)
	return w.wire.post(u)
}

func (w loggedWire) gather(d exchange.Dir, st exchange.Strategy, u int) {
	w.l.add("unit", u, 0)
	w.wire.gather(d, st, u)
}

// The Fig 4 edges of a transposing region must hold under any
// interleaving of the host and the stream workers: pack(ip, g) runs
// after compute(ip, g), and unit ip's exchange (a posted all-to-all or
// a zero-copy gather) starts after every device's pack(ip) — after
// every pack of the slab under PerSlab.
func TestReplayOrderHoldsUnderScheduleJitter(t *testing.T) {
	const n, p, ngpu = 16, 2, 2
	for _, np := range []int{1, 2, 5} {
		for _, st := range []exchange.Strategy{exchange.Staged, exchange.ChunkedFused} {
			for _, gran := range []Granularity{PerPencil, PerSlab} {
				name := fmt.Sprintf("np%d_%s_gran%d", np, st, gran)
				if err := mpi.TryRun(p, func(c *mpi.Comm) {
					a := NewAsyncSlabReal(c, n, Options{NP: np, NGPU: ngpu, Granularity: gran, Exchange: st})
					defer a.Close()
					l := &replayLog{rng: rand.New(rand.NewSource(int64(100*np + c.Rank())))}
					a.wire = loggedWire{a.wire, l}
					for d := range a.regT {
						for i := range a.regT[d].cells {
							cl, ip, g := &a.regT[d].cells[i], i/ngpu, i%ngpu
							if cl.compute.Run == nil {
								continue
							}
							compute, pack := cl.compute.Run, cl.pack.Run
							cl.compute.Run = func() { l.jitter(); compute(); l.add("compute", ip, g) }
							cl.pack.Run = func() { l.jitter(); pack(); l.add("pack", ip, g) }
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
							if (ci < 0) != (a.regT[0].cells[i].compute.Run == nil) || (ci < 0) != (pi < 0) {
								panic(fmt.Sprintf("%s: cell (%d,%d) logged compute %d pack %d", name, ip, g, ci, pi))
							}
							if ci < 0 {
								continue
							}
							if pi < ci {
								panic(fmt.Sprintf("%s: pack(%d,%d) ran before its compute: %v", name, ip, g, l.seq))
							}
							u := ip
							if gran == PerSlab {
								u = 0
							}
							if ui := l.index("unit", u, 0); ui < pi {
								panic(fmt.Sprintf("%s: unit %d's exchange started before pack(%d,%d): %v", name, u, ip, g, l.seq))
							}
						}
					}
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}
