package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"upmgo/internal/cli"
)

func TestRunRejectsArguments(t *testing.T) {
	for _, args := range [][]string{{"-nope"}, {"stray"}, {"-topo", "9q"}} {
		var out, errw bytes.Buffer
		err := run(args, &out, &errw)
		if err == nil {
			t.Errorf("run(%v) succeeded, want an error", args)
			continue
		}
		// The command prints the error once, whether the FlagSet or
		// cli.Exit reports it.
		cli.Exit("latency", err, &errw)
		if n := strings.Count(errw.String(), err.Error()); n != 1 {
			t.Errorf("run(%v) printed %q %d times, want once:\n%s", args, err, n, errw.String())
		}
	}
}

// checkLadder parses a rendered table and returns the number of latency
// rows, failing the test if the ladder is not monotone or lacks a level.
func checkLadder(t *testing.T, text string) int {
	t.Helper()
	for _, want := range []string{"L1 cache", "L2 cache", "local memory", "remote memory"} {
		if !strings.Contains(text, want) {
			t.Errorf("table lacks a %q row:\n%s", want, text)
		}
	}
	var last float64
	var levels int
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		ns, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			continue // header lines
		}
		levels++
		if ns < last {
			t.Errorf("latency ladder not monotone at %q (%.1f after %.1f)", line, ns, last)
		}
		last = ns
	}
	return levels
}

// TestRunTable1 checks the probed ladder: every hierarchy level appears
// and the latencies grow monotonically down the table.
func TestRunTable1(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(nil, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if levels := checkLadder(t, out.String()); levels != 6 {
		t.Errorf("parsed %d latency rows, want 6:\n%s", levels, out.String())
	}
}

// TestRunTable1ThreeLevelHierarchy prints the ladder of a 3-level
// 4×2×2-node hierarchy (64 CPUs): the doubling hop weights make every
// distance 1..7 reachable, so the table grows to 3 + 7 rows, still
// monotone.
func TestRunTable1ThreeLevelHierarchy(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-topo", "4x2x2x4"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "4x2x2x4") {
		t.Errorf("header does not name the shape:\n%s", text)
	}
	if levels := checkLadder(t, text); levels != 10 {
		t.Errorf("parsed %d latency rows, want 10:\n%s", levels, text)
	}
}

// TestRunTable1OriginPreset: the origin preset is the default machine
// expressed as a hierarchy, so its ladder is identical to the default.
func TestRunTable1OriginPreset(t *testing.T) {
	var def, hier, errw bytes.Buffer
	if err := run(nil, &def, &errw); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-topo", "origin"}, &hier, &errw); err != nil {
		t.Fatal(err)
	}
	defRows := def.String()[strings.Index(def.String(), "Level"):]
	hierRows := hier.String()[strings.Index(hier.String(), "Level"):]
	if defRows != hierRows {
		t.Errorf("origin preset ladder differs from the default:\n%s\nvs\n%s", hierRows, defRows)
	}
}

func TestRunRejectsBadShape(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-topo", "bogus"}, &out, &errw); err == nil {
		t.Error("run(-topo bogus) succeeded, want an error")
	}
}
