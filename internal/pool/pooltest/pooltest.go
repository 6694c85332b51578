// Package pooltest is test support for the buffer arena: it finds the
// float and complex buffers a value holds that carry capacity past
// what any of their slices reach — memory an engine pays for and never
// uses, such as a buffer rounded up to a size class.
package pooltest

import (
	"fmt"
	"reflect"
	"sort"
)

// span is one backing array as the walk saw it, keyed by its end
// address: the furthest any slice into it reaches, and the path and
// capacity of the widest slice.
type span struct {
	reach uintptr
	path  string
	cap   int
}

// Overheld walks everything reachable from v (through pointers,
// interfaces, structs, slices, arrays and maps; unexported fields
// included) and returns one line per []complex128, []complex64 or
// []float64 backing array that no slice reaches to the end of, sorted,
// and how many such backing arrays it saw in all. Views into a buffer
// are fine as long as something holds the whole of it.
func Overheld(v any) (bad []string, buffers int) {
	w := walker{seen: map[visit]bool{}, arrays: map[uintptr]*span{}}
	w.walk(reflect.ValueOf(v), reflect.TypeOf(v).String())
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
				s = &span{path: path, cap: v.Cap()}
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
