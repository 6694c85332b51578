// Package mpi (fixture) exercises the lockorder analyzer, which only
// activates inside an mpi package: channel sends and nested cond.Wait
// under held mutexes.
package mpi

import "sync"

type world struct {
	mu    sync.Mutex
	inner sync.Mutex
	ch    chan int
	cv    *sync.Cond
}

// nested sends with the world lock held: the receiver may need it.
func (w *world) nested(v int) {
	w.mu.Lock()
	w.ch <- v // want `channel send while holding a mutex`
	w.mu.Unlock()
}

// nestedWait sleeps on a cond with a second mutex still held: Wait
// only releases its own mutex.
func (w *world) nestedWait() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.inner.Lock()
	w.cv.Wait() // want `cond.Wait while holding a second mutex`
	w.inner.Unlock()
}

// unlocked copies what it needs under the lock and operates outside
// it, the pattern the runtime's abort paths use.
func (w *world) unlocked(v int) {
	w.mu.Lock()
	ch := w.ch
	w.mu.Unlock()
	ch <- v
}

// ownWait holds exactly one mutex across Wait, which is the normal
// condition-variable protocol.
func (w *world) ownWait() {
	w.mu.Lock()
	w.cv.Wait()
	w.mu.Unlock()
}

// deferredDelivery hands work to a goroutine body, which starts with
// no locks held.
func (w *world) deferredDelivery(v int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	go func() {
		w.ch <- v
	}()
}

// allowedSend documents a deliberate send under the lock.
func (w *world) allowedSend(v int) {
	w.mu.Lock()
	w.ch <- v //psdns:allow lockorder buffered signal channel sized to the rank count
	w.mu.Unlock()
}
