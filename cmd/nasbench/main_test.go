package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"upmgo"
	"upmgo/internal/cli"
)

func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-nope"},
		{"-bench", "UA"},
		{"-class", "Q"},
		{"-placement", "best"},
		{"-upm", "sometimes"},
		{"-upm", "dist"},
		{"stray"},
	}
	for _, args := range cases {
		var out, errw bytes.Buffer
		err := run(args, &out, &errw)
		if err == nil {
			t.Errorf("run(%v) succeeded, want an error", args)
			continue
		}
		// The command prints the error once, whether the FlagSet or
		// cli.Exit reports it.
		cli.Exit("nasbench", err, &errw)
		if n := strings.Count(errw.String(), err.Error()); n != 1 {
			t.Errorf("run(%v) printed %q %d times, want once:\n%s", args, err, n, errw.String())
		}
	}
	// Every spelling the config types print parses; the unknown
	// benchmark then stops the run before any simulation.
	var spellings [][]string
	for _, c := range []upmgo.NASClass{upmgo.ClassS, upmgo.ClassW, upmgo.ClassA} {
		spellings = append(spellings, []string{"-class", c.String()})
	}
	for _, p := range upmgo.Policies {
		spellings = append(spellings, []string{"-placement", p.String()})
	}
	for _, m := range []upmgo.UPMMode{upmgo.UPMOff, upmgo.UPMDistribute, upmgo.UPMRecRep} {
		spellings = append(spellings, []string{"-upm", m.String()})
	}
	for _, args := range spellings {
		var out, errw bytes.Buffer
		if err := run(append(args, "-bench", "NOPE"), &out, &errw); !errors.Is(err, upmgo.ErrUnknownBenchmark) {
			t.Errorf("run(%v) = %v, want only the unknown-benchmark error", args, err)
		}
	}
}

// TestRunBaseline drives one fast cell end to end and checks the report's
// shape: the header names the config, the loop ran the asked iterations,
// and verification passed.
func TestRunBaseline(t *testing.T) {
	var out, errw bytes.Buffer
	args := []string{"-bench", "CG", "-class", "S", "-placement", "wc", "-upm", "upmlib",
		"-iters", "4", "-v"}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"CG Class S  wc-upmlib",
		"over 4 iterations",
		"UPMlib",
		"verified       ok",
		"iter   4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "iter   5") {
		t.Error("ran more iterations than -iters asked for")
	}
}

// TestRunSteady: the -steady flag reports the detection point, and the
// extrapolated run's headline virtual time matches the simulated one.
func TestRunSteady(t *testing.T) {
	var plain, steady, errw bytes.Buffer
	base := []string{"-bench", "SP", "-class", "S", "-iters", "10"}
	if err := run(base, &plain, &errw); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-steady"), &steady, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(steady.String(), "steady state   detected at iteration") {
		t.Errorf("steady run did not report detection:\n%s", steady.String())
	}
	// Identical except for the added steady-state line: drop it and compare.
	var kept []string
	for _, line := range strings.Split(steady.String(), "\n") {
		if !strings.Contains(line, "steady state") {
			kept = append(kept, line)
		}
	}
	if got := strings.Join(kept, "\n"); got != plain.String() {
		t.Errorf("extrapolated report diverges from simulated:\n--- plain\n%s\n--- steady\n%s",
			plain.String(), got)
	}
}

// TestRunSteadyNotDetected: when the loop ends before the detector can
// prove an orbit, the report says so instead of staying silent.
func TestRunSteadyNotDetected(t *testing.T) {
	var out, errw bytes.Buffer
	args := []string{"-bench", "SP", "-class", "S", "-iters", "3", "-steady"}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "steady state   not detected [loop_too_short]:") {
		t.Errorf("short steady run did not give the typed diagnosis:\n%s", out.String())
	}
}

// TestRunExtensions: the extension benchmarks EP and IS run and verify
// at Class S, and -h names them, exiting with the shared help status.
func TestRunExtensions(t *testing.T) {
	for _, b := range []string{"EP", "IS"} {
		var out, errw bytes.Buffer
		if err := run([]string{"-bench", b, "-class", "S"}, &out, &errw); err != nil {
			t.Errorf("-bench %s: %v", b, err)
		}
		if !strings.Contains(out.String(), "verified       ok") {
			t.Errorf("-bench %s did not verify:\n%s", b, out.String())
		}
	}
	var out, errw bytes.Buffer
	if code := cli.Exit("nasbench", run([]string{"-h"}, &out, &errw), &errw); code != 2 {
		t.Errorf("-h exited %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "LU, EP and IS") {
		t.Errorf("-h does not name EP and IS:\n%s", errw.String())
	}
}

// TestRunStrayArgument: a stray argument prints the usage, then the
// error once, as a bad flag does (cli.Parse).
func TestRunStrayArgument(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{{"nasbench", []string{"stray"}}} {
		var out, errw bytes.Buffer
		code := cli.Exit("nasbench", run(c.args, &out, &errw), &errw)
		got, want := errw.String(), "\nnasbench: unexpected arguments: stray\n"
		if code != 1 || !strings.HasPrefix(got, "Usage of "+c.name+":\n") || !strings.HasSuffix(got, want) {
			t.Errorf("%v: exit %d, stderr:\n%s\nwant exit 1, the usage of %s, then %q", c.args, code, got, c.name, want[1:])
		}
	}
}
