// Package pooltest is test support for the buffer arena: it finds the
// float and complex buffers a value holds that carry capacity past
// what any of their slices reach — memory an engine pays for and never
// uses, such as a buffer rounded up to a size class.
package pooltest

import (
	"fmt"
	"reflect"
	"sort"
	"sync"

	"repro/internal/mpi"
)

// InWorld builds one value per rank on p ranks, hands them all to
// inspect while the world is quiescent, and then releases each on its
// rank, so the world ends with every plan freed. The walks above reach
// the world through an engine's communicator; while inspect runs no
// rank is inside the runtime (each waits on a channel), so nothing
// writes what a walk reads: the watchdog monitor, with no rank
// blocked, writes only a flag the walks skip. The ranks meet in a
// barrier before they leave the runtime, so a build that deadlocks
// holds every rank where the watchdog sees it and fails on it.
// inspect runs on a goroutine of its own: report with t.Error, not
// t.Fatal.
func InWorld[T any](p int, build func(*mpi.Comm) T, inspect func(built []T), release func(T)) {
	built := make([]T, p)
	var ready sync.WaitGroup
	ready.Add(p)
	done := make(chan struct{})
	go func() {
		ready.Wait()
		defer close(done)
		inspect(built)
	}()
	mpi.Run(p, func(c *mpi.Comm) {
		func() {
			defer ready.Done()
			built[c.Rank()] = build(c)
			c.Barrier()
		}()
		<-done
		release(built[c.Rank()])
	})
}

// span is one backing array as the walk saw it, keyed by its end
// address: the furthest any slice into it reaches, its element kind,
// and the path and capacity of the widest slice.
type span struct {
	reach uintptr
	kind  reflect.Kind
	path  string
	cap   int
}

// Buffer is one float or complex backing array reachable from a value:
// its element kind, and the path and capacity of its widest slice.
type Buffer struct {
	Kind reflect.Kind
	Path string
	Cap  int
}

// Buffers walks v as Overheld does and returns every []complex128,
// []complex64 or []float64 backing array it reaches, once each, sorted
// by path.
func Buffers(v any) []Buffer {
	w := walkFrom(v)
	out := make([]Buffer, 0, len(w.arrays))
	for _, s := range w.arrays {
		out = append(out, Buffer{s.kind, s.path, s.cap})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Overheld walks everything reachable from v (through pointers,
// interfaces, structs, slices, arrays and maps; unexported fields
// included) and returns one line per []complex128, []complex64 or
// []float64 backing array that no slice reaches to the end of, sorted,
// and how many such backing arrays it saw in all. Views into a buffer
// are fine as long as something holds the whole of it.
func Overheld(v any) (bad []string, buffers int) {
	w := walkFrom(v)
	for end, s := range w.arrays {
		if s.reach != end {
			bad = append(bad, fmt.Sprintf("%s: cap %d, %d B past every slice", s.path, s.cap, end-s.reach))
		}
	}
	sort.Strings(bad)
	return bad, len(w.arrays)
}

// visit is a pointer the walk has followed.
type visit struct {
	addr uintptr
	typ  reflect.Type
}

type walker struct {
	seen   map[visit]bool
	arrays map[uintptr]*span // by end address
}

func walkFrom(v any) *walker {
	w := &walker{seen: map[visit]bool{}, arrays: map[uintptr]*span{}}
	w.walk(reflect.ValueOf(v), reflect.TypeOf(v).String())
	return w
}

func (w *walker) walk(v reflect.Value, path string) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		key := visit{v.Pointer(), v.Type()}
		if w.seen[key] {
			return
		}
		w.seen[key] = true
		w.walk(v.Elem(), path)
	case reflect.Interface:
		if !v.IsNil() {
			w.walk(v.Elem(), path)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			w.walk(v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Array:
		for i := range v.Len() {
			w.walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			w.walk(it.Value(), fmt.Sprintf("%s[%v]", path, it.Key()))
		}
	case reflect.Slice:
		switch v.Type().Elem().Kind() {
		case reflect.Complex128, reflect.Complex64, reflect.Float64:
			if v.Cap() == 0 {
				return
			}
			size := v.Type().Elem().Size()
			start := v.Pointer()
			end, reach := start+uintptr(v.Cap())*size, start+uintptr(v.Len())*size
			s := w.arrays[end]
			if s == nil {
				s = &span{kind: v.Type().Elem().Kind(), path: path, cap: v.Cap()}
				w.arrays[end] = s
			}
			if reach > s.reach {
				s.reach = reach
			}
			if v.Cap() > s.cap {
				s.path, s.cap = path, v.Cap()
			}
			return
		}
		if !mayHold(v.Type().Elem()) {
			return
		}
		for i := range v.Len() {
			w.walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	}
}

// mayHold reports whether a value of type t can reach a slice.
func mayHold(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Array, reflect.Map, reflect.Slice:
		return true
	}
	return false
}
