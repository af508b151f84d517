package topology

import (
	"reflect"
	"testing"
)

// FuzzParseShape: whatever ParseShape accepts round-trips through
// String, stays within MaxCPUs, builds, and has a latency ladder no
// longer than the deepest accepted shape's. Seeds: every preset, the
// shapes of the other tests, and the crash shapes (committed under
// testdata/fuzz/FuzzParseShape too).
func FuzzParseShape(f *testing.F) {
	for name := range Presets {
		f.Add(name)
	}
	for _, s := range append([]string{"4x2x8", "cube:2x2x2", "2x2x2x2x1", "64x64x1", "0x2", "cube:"}, crashShapes...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sh, err := ParseShape(s)
		if err != nil {
			return
		}
		again, err := ParseShape(sh.String())
		if err != nil {
			t.Fatalf("ParseShape(%q) rejects its own String %q: %v", s, sh.String(), err)
		}
		if !reflect.DeepEqual(again, sh) {
			t.Fatalf("ParseShape(%q) = %+v, its String re-parses as %+v", s, sh, again)
		}
		if n := sh.CPUCount(); n < 1 || n > MaxCPUs {
			t.Fatalf("ParseShape(%q): %d CPUs", s, n)
		}
		h, err := sh.Build()
		if err != nil {
			t.Fatalf("ParseShape(%q) accepted a shape Build rejects: %v", s, err)
		}
		if n := len(h.LatencyExtras()); n > 1<<maxShapeLevels {
			t.Fatalf("ParseShape(%q): latency ladder of %d entries", s, n)
		}
	})
}
