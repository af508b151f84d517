package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"upmgo"
	"upmgo/internal/cli"
	"upmgo/internal/exp"
	"upmgo/internal/machine"
	"upmgo/internal/nas"
	"upmgo/internal/vm"
)

func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-nope"},
		{"-bench", "UA"},
		{"-class", "Q"},
		{"-placement", "best"},
		{"-upm", "sometimes"},
		{"-upm", "dist"},
		{"-width", "0"},
		{"stray"},
		{"-from", "/does/not/exist.json"},
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
		cli.Exit("pagemap", err, &errw)
		if n := strings.Count(errw.String(), err.Error()); n != 1 {
			t.Errorf("run(%v) printed %q %d times, want once:\n%s", args, err, n, errw.String())
		}
	}
	// Every spelling the config types print parses; the unknown
	// benchmark then stops the run before any simulation.
	var spellings [][]string
	for _, c := range []nas.Class{nas.ClassS, nas.ClassW, nas.ClassA} {
		spellings = append(spellings, []string{"-class", c.String()})
	}
	for _, p := range vm.Policies {
		spellings = append(spellings, []string{"-placement", p.String()})
	}
	for _, m := range []nas.Mode{nas.UPMOff, nas.UPMDistribute, nas.UPMRecRep} {
		spellings = append(spellings, []string{"-upm", m.String()})
	}
	for _, args := range spellings {
		var out, errw bytes.Buffer
		err := run(append(args, "-bench", "NOPE"), &out, &errw)
		if err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
			t.Errorf("run(%v) = %v, want only the unknown-benchmark error", args, err)
		}
	}
}

// TestRunRandomMatchesNASRun: pagemap runs its cell through nas.Run at
// nasbench's seed, so a random placement draws exactly the page homes a
// seed-42 nas.Run of the same cell does.
func TestRunRandomMatchesNASRun(t *testing.T) {
	var out, errw bytes.Buffer
	args := []string{"-bench", "CG", "-class", "S", "-placement", "rand", "-upm", "off", "-iters", "1"}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	build, _ := exp.Builder("CG")
	var m *machine.Machine
	var k nas.Kernel
	cfg := nas.Config{Class: nas.ClassS, Placement: vm.Random, Seed: 42, Iterations: 1, SkipVerify: true}
	if _, err := nas.Run(func(mm *machine.Machine, class nas.Class, scale int, seed uint64) nas.Kernel {
		m, k = mm, build(mm, class, scale, seed)
		return k
	}, cfg); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	dump(&want, m, k, 96, "after iteration 1")
	if !strings.Contains(out.String(), want.String()) {
		t.Errorf("pagemap's map differs from nas.Run's:\n--- pagemap\n%s\n--- nas.Run\n%s", out.String(), want.String())
	}
}

// TestRunSimulated drives the live-simulation path on the fast class and
// checks the map's shape: a cold-start dump, one dump per iteration, the
// closing histogram, and only legal page symbols.
func TestRunSimulated(t *testing.T) {
	var out, errw bytes.Buffer
	args := []string{"-bench", "CG", "-class", "S", "-placement", "wc", "-upm", "upmlib",
		"-iters", "3", "-width", "32"}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"wc placement, upm=upmlib",
		"after cold start:",
		"after iteration 1:",
		"after iteration 3:",
		"pages per node:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "after iteration 4:") {
		t.Error("ran more iterations than -iters asked for")
	}
	// Page rows hold only node digits, replicas, frozen or unmapped marks.
	inMap := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasSuffix(line, ":"):
			inMap = true
		case line == "" || strings.HasPrefix(line, "pages per node"):
			inMap = false
		case inMap:
			if rest := strings.Trim(line, "01234567.*!"); rest != "" {
				t.Errorf("map row holds foreign characters %q: %s", rest, line)
			}
		}
	}
	// UPMlib moved the worst-case pages: some page left its initial home.
	if !strings.Contains(text, "after iteration 1:") {
		t.Fatal("no iteration dump to compare")
	}
}

// TestRunFromSeries renders a captured metrics series instead of
// simulating: one dominant-node map per heatmap, with the cell name in
// the header.
func TestRunFromSeries(t *testing.T) {
	s := upmgo.NewMetricsSampler(upmgo.MetricsOptions{Heatmap: true, Cell: "cg-wc-test"})
	cfg := upmgo.NASConfig{
		Class:     upmgo.ClassS,
		Placement: upmgo.WorstCase,
		UPM:       upmgo.UPMDistribute,
		Metrics:   s,
	}
	res, err := upmgo.RunNAS("CG", cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cg.metrics.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Series().WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out, errw bytes.Buffer
	if err := run([]string{"-from", path, "-width", "8"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "cg-wc-test — dominant referencing node") {
		t.Errorf("header lacks the cell name:\n%s", text)
	}
	if got := strings.Count(text, "after iteration "); got != len(res.IterPS) {
		t.Errorf("rendered %d maps, want one per iteration (%d)", got, len(res.IterPS))
	}
	if !strings.ContainsAny(text, "01234567") {
		t.Errorf("no dominant node rendered anywhere:\n%s", text)
	}

	// A series captured without heatmaps is an explicit error.
	empty := upmgo.NewMetricsSampler(upmgo.MetricsOptions{})
	cfg.Metrics = empty
	if _, err := upmgo.RunNAS("CG", cfg); err != nil {
		t.Fatal(err)
	}
	bare := filepath.Join(t.TempDir(), "bare.metrics.json")
	bf, err := os.Create(bare)
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.Series().WriteJSON(bf); err != nil {
		t.Fatal(err)
	}
	bf.Close()
	if err := run([]string{"-from", bare}, &out, &errw); err == nil || !strings.Contains(err.Error(), "no heatmaps") {
		t.Errorf("heatmap-less series: got %v, want a no-heatmaps error", err)
	}
}

// TestRunExtensions: the extension benchmarks EP and IS run at Class S,
// and -h names them, exiting with the shared help status.
func TestRunExtensions(t *testing.T) {
	for _, b := range []string{"EP", "IS"} {
		var out, errw bytes.Buffer
		if err := run([]string{"-bench", b, "-class", "S"}, &out, &errw); err != nil {
			t.Errorf("-bench %s: %v", b, err)
		}
		if !strings.Contains(out.String(), "pages per node:") {
			t.Errorf("-bench %s drew no map:\n%s", b, out.String())
		}
	}
	var out, errw bytes.Buffer
	if code := cli.Exit("pagemap", run([]string{"-h"}, &out, &errw), &errw); code != 2 {
		t.Errorf("-h exited %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "LU, EP and IS") {
		t.Errorf("-h does not name EP and IS:\n%s", errw.String())
	}
}

// TestRunSkipsVerify: pagemap skips verification by default, so a BT
// run too short for its residual to fall still draws its map.
func TestRunSkipsVerify(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-bench", "BT", "-class", "S", "-iters", "1"}, &out, &errw); err != nil {
		t.Errorf("one BT step: %v", err)
	}
}

// TestRunStrayArgument: a stray argument prints the usage, then the
// error once, as a bad flag does (cli.Parse).
func TestRunStrayArgument(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{{"pagemap", []string{"stray"}}} {
		var out, errw bytes.Buffer
		code := cli.Exit("pagemap", run(c.args, &out, &errw), &errw)
		got, want := errw.String(), "\npagemap: unexpected arguments: stray\n"
		if code != 1 || !strings.HasPrefix(got, "Usage of "+c.name+":\n") || !strings.HasSuffix(got, want) {
			t.Errorf("%v: exit %d, stderr:\n%s\nwant exit 1, the usage of %s, then %q", c.args, code, got, c.name, want[1:])
		}
	}
}
