package nas

import (
	"fmt"
	"reflect"
)

// Diverge names the first field in which two Results differ, as a path
// such as "IterPS[3]", "Mach.TLBMiss" or "len(PhasePS)", or returns ""
// when they are deeply equal. Fields are visited in declaration order,
// so "first" is stable. Two runs that should agree — a replay or a fork
// and the reference Run — can then say where they part, not only that
// they do.
func Diverge(a, b Result) string {
	return diverge("", reflect.ValueOf(a), reflect.ValueOf(b))
}

func diverge(path string, a, b reflect.Value) string {
	if path == "" {
		path = "Result"
	}
	if a.CanInterface() && reflect.DeepEqual(a.Interface(), b.Interface()) {
		return ""
	}
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			name := a.Type().Field(i).Name
			if path != "Result" {
				name = path + "." + name
			}
			if d := diverge(name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return "len(" + path + ")"
		}
		for i := 0; i < a.Len(); i++ {
			if d := diverge(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path
			}
			return ""
		}
		if a.Elem().Type() != b.Elem().Type() {
			return path
		}
		return diverge(path, a.Elem(), b.Elem())
	}
	if a.CanInterface() || fmt.Sprint(a) != fmt.Sprint(b) {
		// An exported leaf reaching here failed DeepEqual above; an
		// unexported one compares by its formatted value.
		return path
	}
	return ""
}
