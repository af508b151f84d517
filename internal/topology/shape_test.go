package topology

import (
	"strings"
	"testing"
)

func TestParseShape(t *testing.T) {
	sh, err := ParseShape("4x2x8")
	if err != nil {
		t.Fatal(err)
	}
	if sh.Cube {
		t.Error("plain shape parsed as cube")
	}
	if sh.CPUsPerNode != 8 || sh.NodeCount() != 8 || sh.CPUCount() != 64 {
		t.Errorf("4x2x8: cpus=%d nodes=%d total=%d, want 8/8/64", sh.CPUsPerNode, sh.NodeCount(), sh.CPUCount())
	}
	// Outermost first, hops doubling outward, extras proportional.
	want := []Level{
		{Name: "socket", Arity: 4, Hop: 2, ExtraPS: 2 * DefaultExtraPerHopPS},
		{Name: "die", Arity: 2, Hop: 1, ExtraPS: DefaultExtraPerHopPS},
	}
	for i, lv := range sh.Levels {
		if lv != want[i] {
			t.Errorf("level %d = %+v, want %+v", i, lv, want[i])
		}
	}
	if sh.String() != "4x2x8" {
		t.Errorf("String() = %q, want 4x2x8", sh.String())
	}
}

func TestParseShapeCube(t *testing.T) {
	sh, err := ParseShape("cube:2x2x2")
	if err != nil {
		t.Fatal(err)
	}
	if !sh.Cube || sh.NodeCount() != 4 || sh.CPUsPerNode != 2 {
		t.Fatalf("cube:2x2x2 parsed as %+v", sh)
	}
	for _, lv := range sh.Levels {
		if lv.Hop != 1 || lv.ExtraPS != 0 {
			t.Errorf("cube level %+v, want unit hop and no extras", lv)
		}
	}
	if sh.String() != "cube:2x2x2" {
		t.Errorf("String() = %q", sh.String())
	}
	if !sh.CubeEquivalent(4, 2) {
		t.Error("cube:2x2x2 not equivalent to 4 nodes x 2 CPUs")
	}
	for _, c := range []struct{ n, c int }{{8, 2}, {4, 4}} {
		if sh.CubeEquivalent(c.n, c.c) {
			t.Errorf("cube:2x2x2 claimed equivalent to %d nodes x %d CPUs", c.n, c.c)
		}
	}
}

func TestParseShapePresets(t *testing.T) {
	cases := []struct {
		name         string
		nodes, total int
	}{
		{"origin", 8, 16},
		{"hier64", 8, 64},
		{"hier128", 16, 128},
		{"HIER256", 32, 256}, // presets are case-insensitive
	}
	for _, c := range cases {
		sh, err := ParseShape(c.name)
		if err != nil {
			t.Fatalf("ParseShape(%q): %v", c.name, err)
		}
		if sh.NodeCount() != c.nodes || sh.CPUCount() != c.total {
			t.Errorf("%s: %d nodes / %d CPUs, want %d/%d", c.name, sh.NodeCount(), sh.CPUCount(), c.nodes, c.total)
		}
		if _, err := NewHierarchy(sh.Levels); err != nil {
			t.Errorf("%s: NewHierarchy: %v", c.name, err)
		}
	}
	// origin is the paper's machine expressed as a hierarchy.
	sh, _ := ParseShape("origin")
	if !sh.CubeEquivalent(8, 2) {
		t.Error("origin preset not cube-equivalent to the default machine")
	}
}

func TestParseShapeRoundTrip(t *testing.T) {
	for _, s := range []string{"4x2x8", "cube:2x2x2", "8x4x8", "2x2x2x2x1"} {
		sh, err := ParseShape(s)
		if err != nil {
			t.Fatalf("ParseShape(%q): %v", s, err)
		}
		again, err := ParseShape(sh.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", sh.String(), err)
		}
		if again.String() != sh.String() {
			t.Errorf("round trip %q -> %q -> %q", s, sh.String(), again.String())
		}
	}
}

func TestParseShapeErrors(t *testing.T) {
	for _, s := range []string{"", "8", "0x2", "2x-1", "ax2", "cube:", "2xx2", "64x64x1"} {
		if _, err := ParseShape(s); err == nil {
			t.Errorf("ParseShape(%q) succeeded, want error", s)
		}
	}
}

// crashShapes once parsed and then killed the simulator: a CPU count
// that overflows int, hop weights doubled through 40 arity-1 levels to
// 2^41 (an out-of-memory latency ladder), and a CPU count that wraps to 0.
var crashShapes = []string{
	"2x4611686018427387904",
	"2x" + strings.Repeat("1x", 40) + "2x2",
	"4x4611686018427387904",
}

// TestParseShapeCaps: the crash shapes are errors, and the CPU and level
// caps sit exactly at MaxCPUs and maxShapeLevels.
func TestParseShapeCaps(t *testing.T) {
	for _, tc := range []struct {
		shape string
		ok    bool
	}{
		{crashShapes[0], false},
		{crashShapes[1], false},
		{crashShapes[2], false},
		{"8x4x8", true},  // 256 CPUs
		{"8x4x9", false}, // 288
		{"1x256", true},  // 256 on one node
		{"256x1", true},  // 256 nodes of one CPU
		{"2x129", false}, // 258
		{"8x8x8", false}, // 512
		{"2x" + strings.Repeat("1x", 8) + "2x2", true},  // 10 node levels
		{"2x" + strings.Repeat("1x", 9) + "2x2", false}, // 11
	} {
		sh, err := ParseShape(tc.shape)
		if (err == nil) != tc.ok {
			t.Errorf("ParseShape(%q) error %v, want ok=%t", tc.shape, err, tc.ok)
			continue
		}
		if err == nil && sh.CPUCount() > MaxCPUs {
			t.Errorf("ParseShape(%q): %d CPUs", tc.shape, sh.CPUCount())
		}
	}
}

func TestCountCPUs(t *testing.T) {
	for _, tc := range []struct {
		factors []int
		n       int
		ok      bool
	}{
		{nil, 1, true},
		{[]int{8, 4, 8}, 256, true},
		{[]int{2, 1 << 62}, 0, false},
		{[]int{4, 1 << 62}, 0, false},
		{[]int{1 << 62, 4}, 0, false},
		{[]int{2, 0}, 0, false},
		{[]int{-1, -4}, 0, false},
	} {
		if n, ok := CountCPUs(tc.factors...); n != tc.n || ok != tc.ok {
			t.Errorf("CountCPUs(%v) = %d, %t; want %d, %t", tc.factors, n, ok, tc.n, tc.ok)
		}
	}
}

func TestLevelNamesDeep(t *testing.T) {
	sh, err := ParseShape("2x2x2x2x2x2")
	if err != nil {
		t.Fatal(err)
	}
	if len(sh.Levels) != 5 {
		t.Fatalf("got %d levels, want 5", len(sh.Levels))
	}
	for i, lv := range sh.Levels {
		want := []string{"L0", "L1", "L2", "L3", "L4"}[i]
		if lv.Name != want {
			t.Errorf("level %d name %q, want %q", i, lv.Name, want)
		}
	}
}
