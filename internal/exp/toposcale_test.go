package exp

import (
	"bytes"
	"strings"
	"testing"

	"upmgo/internal/nas"
)

// TestTopoScaleSpecsShapes: the scaling sweep enumerates Figure 4's
// placement×engine grid once per hierarchical shape, and o.Topo narrows
// it to a single machine.
func TestTopoScaleSpecsShapes(t *testing.T) {
	o := SweepOptions{Class: nas.ClassS, Benches: []string{"CG"}}
	specs := TopoScaleSpecs(o)
	if want := 12 * len(TopoScaleShapes); len(specs) != want {
		t.Fatalf("got %d specs, want %d (12 cells × %d shapes)", len(specs), want, len(TopoScaleShapes))
	}
	seen := map[string]int{}
	for _, s := range specs {
		seen[s.Config.Topo]++
	}
	for _, shape := range TopoScaleShapes {
		if seen[shape] != 12 {
			t.Errorf("shape %s has %d specs, want 12", shape, seen[shape])
		}
	}

	o.Topo = "hier64"
	narrow := TopoScaleSpecs(o)
	if len(narrow) != 12 {
		t.Fatalf("narrowed sweep has %d specs, want 12", len(narrow))
	}
	for _, s := range narrow {
		if s.Config.Topo != "hier64" {
			t.Fatalf("narrowed spec carries topo %q", s.Config.Topo)
		}
	}
}

// TestTopoScale64CPUEndToEnd runs the full 64-CPU Figure-4 grid through
// the Runner: 12 placement×engine cells on the 4-socket hierarchy, every
// cell verified, labels carrying the @shape suffix, and the placement
// gap still open at 64 CPUs (the question the sweep exists to ask).
func TestTopoScale64CPUEndToEnd(t *testing.T) {
	res, err := sweep(Runner{}, KindTopoScale, SweepOptions{
		Class: nas.ClassS, Benches: []string{"CG"}, Seed: 42, Topo: "hier64",
	})
	if err != nil {
		t.Fatal(err)
	}
	cells := res.Cells
	if len(cells) != 12 {
		t.Fatalf("got %d cells, want 12", len(cells))
	}
	byLabel := map[string]float64{}
	for _, c := range cells {
		if !strings.HasSuffix(c.Label, "@4x2x8") {
			t.Errorf("cell label %q lacks the @4x2x8 shape suffix", c.Label)
		}
		if !c.Result.Verified {
			t.Errorf("cell %s failed verification: %v", c.Label, c.Result.VerifyErr)
		}
		byLabel[c.Label] = c.Seconds()
	}
	if byLabel["ft-IRIX@4x2x8"] >= byLabel["wc-IRIX@4x2x8"] {
		t.Errorf("64 CPUs: ft (%.4f) not faster than wc (%.4f)",
			byLabel["ft-IRIX@4x2x8"], byLabel["wc-IRIX@4x2x8"])
	}
	if byLabel["wc-upmlib@4x2x8"] >= byLabel["wc-IRIX@4x2x8"] {
		t.Errorf("64 CPUs: UPMlib did not improve wc (%.4f vs %.4f)",
			byLabel["wc-upmlib@4x2x8"], byLabel["wc-IRIX@4x2x8"])
	}
}

// TestWriteTable1TopoRenders: the generalized ladder names the shape in
// its header and reaches the deeper hierarchy's extra hop distances.
func TestWriteTable1TopoRenders(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTable1Topo(&buf, "hier64"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"4x2x8", "remote memory"} {
		if !strings.Contains(out, want) {
			t.Errorf("hier64 table missing %q:\n%s", want, out)
		}
	}
	if remote := strings.Count(out, "remote memory"); remote != 3 {
		t.Errorf("hier64 table has %d remote rows, want 3 (hops 1..3):\n%s", remote, out)
	}
	// Empty shape must stay byte-compatible with the legacy header.
	var def bytes.Buffer
	if err := WriteTable1Topo(&def, ""); err != nil {
		t.Fatal(err)
	}
	var legacy bytes.Buffer
	if err := WriteTable1(&legacy); err != nil {
		t.Fatal(err)
	}
	if def.String() != legacy.String() {
		t.Error("WriteTable1Topo(\"\") diverged from WriteTable1")
	}
	if err := WriteTable1Topo(&buf, "bogus"); err == nil {
		t.Error("bogus shape accepted")
	}
}
