package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunTopoBitIdentity is the CLI-level check of fingerprint
// canonicalisation: the full `sweep -all` pipeline with the Origin2000
// spelled as a cube shape (-topo cube:2x2x2, the class-S 4-node machine)
// must be indistinguishable from the run without -topo — byte-identical
// stdout AND byte-identical store records under the same addresses,
// since a cube-equivalent shape builds the default machine's hierarchy
// and canonicalises out of the fingerprint. CI runs this under -race
// alongside internal/nas's TestHierarchyBitIdentity.
func TestRunTopoBitIdentity(t *testing.T) {
	dir := t.TempDir()
	cubeStore := filepath.Join(dir, "cube")
	hierStore := filepath.Join(dir, "hier")
	var cube, hier, errw bytes.Buffer
	base := []string{"-all", "-class", "S", "-quiet"}
	if err := run(append(base, "-store", cubeStore), &cube, &errw); err != nil {
		t.Fatal(err)
	}
	errw.Reset()
	if err := run(append(base, "-store", hierStore, "-topo", "cube:2x2x2"), &hier, &errw); err != nil {
		t.Fatal(err)
	}
	if cube.String() != hier.String() {
		t.Error("sweep -all stdout differs between the default machine and -topo cube:2x2x2")
	}

	names, err := filepath.Glob(filepath.Join(cubeStore, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("default run stored no records")
	}
	hierNames, err := filepath.Glob(filepath.Join(hierStore, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(hierNames) != len(names) {
		t.Fatalf("stores diverge: %d default records, %d cube-shape records", len(names), len(hierNames))
	}
	for _, name := range names {
		a, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(hierStore, filepath.Base(name)))
		if err != nil {
			t.Fatalf("cube-shape run missed a record the default run stored: %v", err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("record %s differs between topologies", filepath.Base(name))
		}
	}
}

// TestRunTopoScale drives the 64-CPU scaling sweep end to end through
// the CLI: 12 placement×engine cells on the hier64 machine, rendered
// with the @shape-suffixed labels.
func TestRunTopoScale(t *testing.T) {
	var out, errw bytes.Buffer
	args := []string{"-toposcale", "-topo", "hier64", "-class", "S", "-benches", "CG", "-quiet"}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "Topology scaling.") {
		t.Errorf("stdout lacks the sweep title:\n%s", text)
	}
	for _, want := range []string{"ft-IRIX@4x2x8", "wc-upmlib@4x2x8"} {
		if !strings.Contains(text, want) {
			t.Errorf("stdout lacks cell %q:\n%s", want, text)
		}
	}
	if !strings.Contains(errw.String(), "12 cells simulated") {
		t.Errorf("summary is not 12 cells:\n%s", errw.String())
	}
}

// TestRunTopoRejectsBadShape: an unparseable -topo fails up front,
// before any simulation.
func TestRunTopoRejectsBadShape(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-fig", "1", "-topo", "5q"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "-topo") {
		t.Errorf("got %v, want a -topo parse error", err)
	}
}

// TestRunFigureWithTopo: an ordinary figure honours -topo, labelling
// every cell with the shape.
func TestRunFigureWithTopo(t *testing.T) {
	var out, errw bytes.Buffer
	args := []string{"-fig", "1", "-topo", "hier64", "-class", "S", "-benches", "CG", "-quiet"}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ft-IRIX@4x2x8") {
		t.Errorf("figure cells not on the hier64 machine:\n%s", out.String())
	}
}
