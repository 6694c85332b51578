// Package hotalloc exercises the hotalloc analyzer: allocations in
// //psdns:hotpath functions, one-level propagation into callees,
// panic-guard skipping, and the //psdns:allow suppression path.
package hotalloc

import "math/rand"

type state struct {
	buf   []float64
	sink  any
	stage func()
}

// clean is annotated and allocation-free: pure index arithmetic,
// guard clauses ending in panic, and stack struct values must all
// pass.
//
//psdns:hotpath
func clean(dst, src []float64) {
	if len(dst) < len(src) {
		panic("hotalloc: short destination")
	}
	type pair struct{ a, b float64 }
	p := pair{a: 1, b: 2}
	for i := range src {
		dst[i] = src[i]*p.a + p.b
	}
}

// alloc trips every allocation class the analyzer knows.
//
//psdns:hotpath
func alloc(s *state, n int) {
	tmp := make([]float64, n) // want `call to make allocates`
	s.buf = append(s.buf, 1)  // want `append may grow its backing array`
	q := new(state)           // want `call to new allocates`
	m := map[int]int{}        // want `map literal allocates`
	sl := []int{1, 2}         // want `slice literal allocates`
	r := &state{}             // want `&composite literal escapes`
	s.sink = n                // want `interface conversion of int allocates`
	use(tmp, q, m, sl, r)
}

func use(a []float64, b *state, c map[int]int, d []int, e *state) {}

// helper is not annotated itself but is called from a hotpath
// function, so its body is checked one level deep.
func helper(n int) []float64 {
	return make([]float64, n) // want `call to make allocates in helper, called from //psdns:hotpath function propagates`
}

// second is two levels from any annotation and so is not checked.
func second(n int) []float64 {
	return make([]float64, n)
}

func indirect(n int) []float64 { return second(n) }

//psdns:hotpath
func propagates(s *state, n int) {
	s.buf = helper(n)
	s.buf = indirect(n)
}

// allowed demonstrates the suppression path: a real allocation with
// a reasoned //psdns:allow directive is not reported.
//
//psdns:hotpath
func allowed(s *state, n int) {
	//psdns:allow hotalloc one-time lazy initialization, amortized across all steps
	s.buf = make([]float64, n)
}

// emptyReason shows that a bare directive suppresses nothing and is
// itself diagnosed.
//
//psdns:hotpath
func emptyReason(s *state, n int) {
	//psdns:allow hotalloc // want `psdns:allow hotalloc requires a non-empty reason`
	s.buf = make([]float64, n) // want `call to make allocates`
}

// closures staged on the hot path are checked inside but their
// creation is not flagged: engines build kernel closures at plan
// time and the analyzer only sees annotated bodies.
//
//psdns:hotpath
func staged(s *state, n int) {
	s.stage = func() {
		_ = make([]int, n) // want `call to make allocates`
	}
}

// equation is the pluggable-System dispatch pattern: a hot stepper
// calls through an interface, so the analyzer cannot resolve the
// callee statically and must check every same-package implementation
// one level deep.
type equation interface {
	rhs(dst []float64)
}

type cleanEq struct{}

// rhs implements equation without allocating: passes.
func (cleanEq) rhs(dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
}

type dirtyEq struct{ scratch []float64 }

// rhs implements equation but allocates: reported through the
// interface dispatch in the hot stepper.
func (e *dirtyEq) rhs(dst []float64) {
	e.scratch = make([]float64, len(dst)) // want `call to make allocates in rhs, called from //psdns:hotpath function dispatch`
	copy(e.scratch, dst)
}

// unrelated shares the method name but not the signature, so it does
// not implement equation and is not checked.
type unrelated struct{}

func (unrelated) rhs() []float64 { return make([]float64, 1) }

//psdns:hotpath
func dispatch(eq equation, dst []float64) {
	eq.rhs(dst)
}

func each(n int, body func(i int)) {
	for i := 0; i < n; i++ {
		body(i)
	}
}

// perCall hands a capturing func literal to a callee on every call —
// the closure-per-op pattern a replayed op program exists to avoid. A
// literal that captures nothing is a static function value, and one
// staged into a field is built once; neither is flagged.
//
//psdns:hotpath
func perCall(s *state, dst []float64) {
	each(len(dst), func(i int) { dst[i] = 0 }) // want `func literal passed as an argument builds a closure per call`
	each(len(dst), func(i int) {})
	body := func(i int) { dst[i] = 1 }
	each(len(dst), body)
	s.stage = func() { each(len(dst), body) }
}

// perMode rebuilds a wavenumber triple for every element to pick one
// entry of it — the loop-invariant selection the flux kernels hoisted.
// The same literal outside the loop is a one-time stack value and
// passes.
//
//psdns:hotpath
func perMode(dst, kx []float64, ky, kz float64, comp int) {
	for i := range dst {
		dst[i] *= [3]float64{kx[i], ky, kz}[comp] // want `array literal in a loop is rebuilt every iteration`
	}
	k := [3]float64{0, ky, kz}[comp]
	for i := range dst {
		dst[i] += k
	}
}

// perModeGenerator builds a generator for every call, the per-mode
// cost random initial conditions once paid; drawing from one passed in
// allocates nothing.
//
//psdns:hotpath
func perModeGenerator(seed int64, shared *rand.Rand) float64 {
	r := rand.New(rand.NewSource(seed)) // want `call to rand.New allocates` `call to rand.NewSource allocates`
	return r.Float64() + shared.Float64()
}
