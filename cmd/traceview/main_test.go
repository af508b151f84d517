package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"upmgo"
	"upmgo/internal/cli"
)

func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-nope"},
		{"-class", "Q"},
		{"-placement", "best"},
		{"-upm", "sometimes"},
		{"-upm", "distribute"},
		{"-bench", "UA"},
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
		cli.Exit("traceview", err, &errw)
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

func TestRunSummary(t *testing.T) {
	var out, errw bytes.Buffer
	args := []string{"-bench", "FT", "-class", "S", "-placement", "wc", "-upm", "upmlib"}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"FT.S",             // the result line
		"phase breakdown",  // the Figure 5 decomposition
		"self-deactivated", // UPMlib's Figure 2 protocol fired
		"per iteration:",   // the per-iteration table
	} {
		if !strings.Contains(text, want) {
			t.Errorf("summary lacks %q:\n%s", want, text)
		}
	}
}

// writeSeries runs CG Class S with a sampler attached and dumps the
// series JSON — the same artifact `sweep -metrics` drops per cell. (CG,
// not FT: Class S FT fits in the L2 caches after warm-up, so its
// steady-state counter heatmaps are legitimately all zero.)
func writeSeries(t *testing.T, heatmap bool) string {
	t.Helper()
	s := upmgo.NewMetricsSampler(upmgo.MetricsOptions{Heatmap: heatmap, Cell: "cg-wc-test"})
	cfg := upmgo.NASConfig{
		Class:     upmgo.ClassS,
		Placement: upmgo.WorstCase,
		UPM:       upmgo.UPMDistribute,
		Metrics:   s,
	}
	if _, err := upmgo.RunNAS("CG", cfg); err != nil {
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
	return path
}

// TestRunHeatmap renders a freshly captured series and checks the
// subcommand's geometry: a header naming the cell, one block per
// iteration with one intensity row per node, and the dominant-node row.
func TestRunHeatmap(t *testing.T) {
	path := writeSeries(t, true)
	var out, errw bytes.Buffer
	if err := run([]string{"heatmap", "-in", path, "-width", "40"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "cg-wc-test:") || !strings.Contains(text, "iterations captured") {
		t.Errorf("header missing:\n%s", text)
	}
	blocks := strings.Count(text, "iteration ")
	nodeRows := strings.Count(text, "node 0 |")
	domRows := strings.Count(text, "dom    |")
	if blocks == 0 || nodeRows != blocks || domRows != blocks {
		t.Errorf("got %d iteration blocks, %d node-0 rows, %d dom rows", blocks, nodeRows, domRows)
	}
	// Early iterations carry live counters, so at least one dominant row
	// must name nodes. (Later rows may be all '.': once UPMlib freezes
	// the pages, reference counting stops.)
	populated := 0
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "dom    |"); ok {
			if strings.Trim(rest, ".|") != "" {
				populated++
			}
		}
	}
	if populated == 0 {
		t.Errorf("every dominant row is empty:\n%s", text)
	}

	// -iter selects a single block.
	out.Reset()
	if err := run([]string{"heatmap", "-in", path, "-iter", "1"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "iteration "); got != 1 {
		t.Errorf("-iter 1 rendered %d blocks", got)
	}
}

// TestRunHeatmapErrors: bad invocations fail loudly rather than printing
// an empty map.
func TestRunHeatmapErrors(t *testing.T) {
	withHeat := writeSeries(t, true)
	without := writeSeries(t, false)
	cases := [][]string{
		{"heatmap"}, // -in required
		{"heatmap", "-in", "/does/not/exist.json"},   // unreadable
		{"heatmap", "-in", withHeat, "-iter", "999"}, // no such iteration
		{"heatmap", "-in", without},                  // series captured no heatmaps
		{"heatmap", "-in", withHeat, "stray"},        // stray positional
		{"heatmap", "-nope"},                         // unknown flag
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
		cli.Exit("traceview", err, &errw)
		if n := strings.Count(errw.String(), err.Error()); n != 1 {
			t.Errorf("run(%v) printed %q %d times, want once:\n%s", args, err, n, errw.String())
		}
	}
}

// writeReportFile aggregates three synthetic cell runs the way
// `sweep -report` does and drops the JSON: one full simulation that
// refused to fast-forward (the incompressible kmig shape), one recalled
// cell, one extrapolated cell. The stage numbers are chosen so exactly
// 95% of the host time is attributed.
func writeReportFile(t *testing.T) string {
	t.Helper()
	reps := []*upmgo.CellReport{
		{Bench: "BT", Label: "ft-IRIXmig", Class: "W", Source: upmgo.CellSourceSimulated,
			Kind: upmgo.FastPathFullSim, HostSeconds: 2.5, VirtualSeconds: 30,
			Stages: upmgo.CellStageSeconds{TimedLoop: 2.4},
			FastPath: upmgo.NASFastPath{WhyNot: &upmgo.NASWhyNot{
				Reason: upmgo.WhyNotHomesMoving, HomeMoves: 7, Observed: 40}}},
		{Bench: "CG", Label: "ft", Class: "W", Source: upmgo.CellSourceStore,
			Kind: upmgo.FastPathRecalled, HostSeconds: 1.0, VirtualSeconds: 12,
			Stages: upmgo.CellStageSeconds{StoreProbe: 0.05, Recall: 0.9}},
		{Bench: "SP", Label: "rr", Class: "W", Source: upmgo.CellSourceSimulated,
			Kind: upmgo.FastPathSteadyP1, HostSeconds: 0.5, VirtualSeconds: 20,
			Stages: upmgo.CellStageSeconds{TimedLoop: 0.3, Extrapolate: 0.15}},
	}
	sr := upmgo.BuildSweepReport(reps, 5)
	sr.WallSeconds = 2.0
	blob, err := json.Marshal(sr)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunReportReplay: a replayed cell renders under its own kind with
// the record stage and its store address, and a cell whose stream
// declined names the reason.
func TestRunReportReplay(t *testing.T) {
	reps := []*upmgo.CellReport{
		{Bench: "BT", Label: "rr-IRIX", Class: "W", Source: upmgo.CellSourceSimulated,
			Kind: upmgo.FastPathReplayed, HostSeconds: 0.4, VirtualSeconds: 30,
			Address: "0123456789abcdef0123456789abcdef",
			Stages:  upmgo.CellStageSeconds{Record: 0.3, TimedLoop: 0.1}},
		{Bench: "BT", Label: "ft-IRIX", Class: "W", Source: upmgo.CellSourceSimulated,
			Kind: upmgo.FastPathFullSim, HostSeconds: 0.3, VirtualSeconds: 30,
			Recording: &upmgo.StreamCompression{Steps: 15, At: 4},
			Stored:    &upmgo.StreamSize{HeadBytes: 1_234_567, BlockBytes: 180_300, Repeat: 11, DecodedBytes: 540_100},
			Stages:    upmgo.CellStageSeconds{Prefix: 0.05, TimedLoop: 0.25}},
		{Bench: "LU", Label: "wc-IRIX", Class: "W", Source: upmgo.CellSourceSimulated,
			Kind: upmgo.FastPathFullSim, HostSeconds: 0.2, VirtualSeconds: 10,
			Address: "fedcba9876543210fedcba9876543210", ReplayDeclined: "EventSet",
			Stages: upmgo.CellStageSeconds{Record: 0.05, Prefix: 0.05, TimedLoop: 0.1}},
	}
	blob, err := json.Marshal(upmgo.BuildSweepReport(reps, 5))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"report", "-in", path}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"replayed             1",
		"record",
		"1. BT  rr-IRIX",
		"@0123456789abcdef",
		"@fedcba9876543210 replay declined: EventSet",
		"Miss-stream recordings:\n  BT  ft-IRIX        classW  simulated 4 of 15 timed steps (repeat at step 4)" +
			"; stored head 1.2 MB, block 180.3 kB ×11, 540.1 kB decoded\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report lacks %q:\n%s", want, text)
		}
	}
}

// TestRunReportLegacyKinds: a report written by an older build lists
// kinds this one no longer produces; they render after the known ones.
func TestRunReportLegacyKinds(t *testing.T) {
	sr := upmgo.BuildSweepReport([]*upmgo.CellReport{{Bench: "CG", Label: "ft-IRIXmig", Class: "A",
		Source: upmgo.CellSourceSimulated, Kind: upmgo.FastPathReplayed, HostSeconds: 0.4}}, 5)
	sr.ByKind[upmgo.FastPathSteadyPK] = 4
	sr.ByKind[upmgo.FastPathCampaign] = 2
	sr.Cells += 6
	blob, err := json.Marshal(sr)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"report", "-in", path}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	replayed := strings.Index(text, "  replayed             1  ")
	campaign := strings.Index(text, "  campaign_ff          2  ")
	periodK := strings.Index(text, "  steady_period_k      4  ")
	if replayed < 0 || campaign < 0 || periodK < 0 {
		t.Fatalf("report lacks a kind line:\n%s", text)
	}
	if !(replayed < campaign && campaign < periodK) {
		t.Errorf("legacy kinds do not follow the known ones, sorted:\n%s", text)
	}
}

// TestRunReportHost: a report that carries its host context prints it
// as one host: line under the headline.
func TestRunReportHost(t *testing.T) {
	sr := upmgo.BuildSweepReport([]*upmgo.CellReport{{Bench: "BT", Label: "ft-IRIX", Class: "W",
		Source: upmgo.CellSourceSimulated, Kind: upmgo.FastPathReplayed, HostSeconds: 0.4}}, 5)
	sr.Host = &upmgo.SweepHost{NumCPU: 2, GOMAXPROCS: 2, Jobs: 2, Threads: 16, CodeVersion: "v", Revision: "abc"}
	blob, err := json.Marshal(sr)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"report", "-in", path}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	want := "host time\nhost: num_cpu=2 gomaxprocs=2 jobs=2 threads=16 code_version=v revision=abc\n"
	if !strings.Contains(out.String(), want) {
		t.Errorf("report lacks %q:\n%s", want, out.String())
	}
}

// TestRunReport renders a sweep report and checks every section: the
// headline with the parallelism ratio, the fast-path kind counts in
// cheapest-first order, the stage breakdown with its attribution ratio,
// the slowest-cell ranking, and the why-not histogram naming the
// refusing cell.
func TestRunReport(t *testing.T) {
	path := writeReportFile(t)
	var out, errw bytes.Buffer
	if err := run([]string{"report", "-in", path}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"sweep report: 3 cell runs, 4.000s host time over 2.000s wall (2.0x parallel)",
		"Cells by fast path",
		"recalled",
		"steady_period_1",
		"full_sim",
		"95.0% of host time attributed",
		"timed_loop",
		"store_probe",
		"(unattributed)",
		"Slowest cells:",
		"1. BT  ft-IRIXmig",
		"Why the fast path declined:",
		"homes_moving",
		"BT ft-IRIXmig classW",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report lacks %q:\n%s", want, text)
		}
	}
	// Kind order: recalled (cheapest) must render before full_sim.
	if strings.Index(text, "recalled") > strings.Index(text, "full_sim") {
		t.Error("fast-path kinds are not cheapest-first")
	}
	// The slowest list is host-time descending.
	if strings.Index(text, "1. BT") > strings.Index(text, "2. CG") {
		t.Error("slowest cells are not ranked by host time")
	}
}

// TestRunReportErrors: bad invocations fail loudly.
func TestRunReportErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"report"}, // -in required
		{"report", "-in", "/does/not/exist.json"},
		{"report", "-in", bad},
		{"report", "-in", empty}, // no cells
		{"report", "-in", bad, "stray"},
		{"report", "-nope"},
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
		cli.Exit("traceview", err, &errw)
		if n := strings.Count(errw.String(), err.Error()); n != 1 {
			t.Errorf("run(%v) printed %q %d times, want once:\n%s", args, err, n, errw.String())
		}
	}
}

func TestRunChromeDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bt.trace.json")
	var out, errw bytes.Buffer
	args := []string{"-bench", "BT", "-class", "S", "-upm", "recrep", "-chrome", path}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &tr); err != nil {
		t.Fatalf("dump is not Chrome-loadable JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"iteration", "z_solve", "marked_phase", "upm_replay", "upm_undo"} {
		if !names[want] {
			t.Errorf("Chrome trace lacks %q records", want)
		}
	}
	if !strings.Contains(errw.String(), "wrote") {
		t.Error("stderr lacks the wrote-file confirmation")
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
		if !strings.Contains(out.String(), b+".S") {
			t.Errorf("-bench %s printed no result line:\n%s", b, out.String())
		}
	}
	var out, errw bytes.Buffer
	if code := cli.Exit("traceview", run([]string{"-h"}, &out, &errw), &errw); code != 2 {
		t.Errorf("-h exited %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "LU, EP and IS") {
		t.Errorf("-h does not name EP and IS:\n%s", errw.String())
	}
}

// TestRunVerifyFails: a run whose verification fails fails traceview
// as it fails nasbench. BT's residual does not fall in one step; the
// summary still prints.
func TestRunVerifyFails(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-bench", "BT", "-class", "S", "-iters", "1"}, &out, &errw)
	if err == nil || !strings.HasPrefix(err.Error(), "BT failed verification: bt: residual") {
		t.Errorf("one BT step returned %v, want BT's verification error", err)
	}
	if !strings.Contains(out.String(), "phase breakdown") {
		t.Errorf("no summary before the failure:\n%s", out.String())
	}
}
