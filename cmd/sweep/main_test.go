package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"upmgo"
	"upmgo/internal/cli"
)

func TestRunNothingSelected(t *testing.T) {
	var out, errw bytes.Buffer
	err := run(nil, &out, &errw)
	if !errors.Is(err, errUsage) {
		t.Fatalf("got %v, want errUsage", err)
	}
	if !strings.Contains(errw.String(), "Usage of sweep") {
		t.Error("usage text not printed to stderr")
	}
}

func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-nope"},
		{"-fig", "1", "-class", "Q"},
		{"-fig", "3"},
		{"-fig", "1", "stray"},
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
		cli.Exit("sweep", err, &errw)
		if n := strings.Count(errw.String(), err.Error()); n != 1 {
			t.Errorf("run(%v) printed %q %d times, want once:\n%s", args, err, n, errw.String())
		}
	}
	// Every class letter parses, in either case; with nothing selected
	// the run then stops at the usage error.
	for _, c := range []upmgo.NASClass{upmgo.ClassS, upmgo.ClassW, upmgo.ClassA} {
		for _, s := range []string{c.String(), strings.ToLower(c.String())} {
			var out, errw bytes.Buffer
			if err := run([]string{"-class", s}, &out, &errw); !errors.Is(err, errUsage) {
				t.Errorf("run(-class %s) = %v, want only the usage error", s, err)
			}
		}
	}
}

// TestRunUnknownNumberNamesFlag: a figure or table the paper does not
// have fails before anything runs, named after its own flag.
func TestRunUnknownNumberNamesFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-fig", "3"}, "-fig: no figure 3 in the paper's evaluation"},
		{[]string{"-table", "3"}, "-table: no table 3 in the paper's evaluation"},
		{[]string{"-fig", "1", "-table", "3"}, "-table: no table 3"},
	} {
		var out, errw bytes.Buffer
		err := run(tc.args, &out, &errw)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) printed before failing:\n%s", tc.args, out.String())
		}
	}
}

// TestRunSelectsEveryFlag: every selected figure and table runs, in the
// paper's order whatever the flag order, as one batch that records each
// benchmark's miss stream once.
func TestRunSelectsEveryFlag(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		titles  []string
		summary string
	}{
		{[]string{"-table", "2", "-fig", "1", "-benches", "BT"},
			[]string{"Figure 1.", "Table 2."}, "12 cells simulated (12 replayed from 1 streams)"},
		{[]string{"-toposcale", "-fig", "1", "-topo", "hier64", "-benches", "CG"},
			[]string{"Figure 1.", "Topology scaling."}, "12 cells simulated (12 replayed from 1 streams), 8 recalled"},
		{[]string{"-table", "1", "-fig", "4", "-benches", "CG"},
			[]string{"Table 1.", "Figure 4."}, "12 cells simulated (12 replayed from 1 streams)"},
	} {
		var out, errw bytes.Buffer
		if err := run(append(tc.args, "-class", "S", "-quiet"), &out, &errw); err != nil {
			t.Fatalf("run(%v): %v", tc.args, err)
		}
		at := -1
		for _, title := range tc.titles {
			i := strings.Index(out.String(), title)
			if i <= at {
				t.Errorf("run(%v): %q missing or out of order:\n%s", tc.args, title, out.String())
			}
			at = i
		}
		if !strings.Contains(errw.String(), tc.summary) {
			t.Errorf("run(%v): summary lacks %q:\n%s", tc.args, tc.summary, errw.String())
		}
	}
}

func TestRunTable1(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-table", "1", "-quiet"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table 1.") {
		t.Errorf("stdout lacks the table header:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "cells simulated") {
		t.Error("stderr lacks the closing cache-stats line")
	}
}

// TestRunAllForkScratchByteIdentity is the CLI-level acceptance check
// for miss-stream replay: `sweep -all` stdout at full width must be
// byte-identical between the default run, whose summary shows the replay
// split (one stream per benchmark and cell shape, every cell replayed
// from it), a -steady run, whose cells replay the same streams, and a
// -trace run, whose cells cannot be memoized and so simulate from
// scratch.
func TestRunAllForkScratchByteIdentity(t *testing.T) {
	var replay, steady, scratch, errw bytes.Buffer
	base := []string{"-all", "-class", "S", "-quiet"}
	if err := run(base, &replay, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errw.String(), "66 cells simulated (66 replayed from 6 streams)") {
		t.Errorf("summary lacks the replay report:\n%s", errw.String())
	}
	// The recordings compress: they simulate fewer timed steps than they
	// record.
	var sim, total int
	if i := strings.Index(errw.String(), "sweep: the recordings simulated "); i < 0 {
		t.Errorf("summary lacks the recordings' step count:\n%s", errw.String())
	} else if _, err := fmt.Sscanf(errw.String()[i:], "sweep: the recordings simulated %d of %d", &sim, &total); err != nil || sim >= total {
		t.Errorf("recordings simulated %d of %d timed steps (%v), want fewer than all", sim, total, err)
	}
	errw.Reset()
	if err := run(append(base, "-steady"), &steady, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errw.String(), "66 cells simulated (66 replayed from 6 streams)") {
		t.Errorf("-steady summary lacks the replay report:\n%s", errw.String())
	}
	errw.Reset()
	if err := run(append(base, "-trace", t.TempDir()), &scratch, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errw.String(), "(0 replayed from 0 streams)") {
		t.Errorf("-trace summary reports replay:\n%s", errw.String())
	}
	if replay.String() != scratch.String() {
		t.Error("sweep -all stdout differs between replayed and from-scratch (-trace) cells")
	}
	if steady.String() != scratch.String() {
		t.Error("sweep -all stdout differs between replayed steady (-steady) and from-scratch (-trace) cells")
	}
}

// TestRunDeclinedStreamFallsBack: LU's pipelined sweeps synchronise
// through an EventSet, so its miss-stream recording declines. The
// recording still answers LU's ft-IRIX cell, the other cells run from
// scratch, the summary names the reason, and stdout matches a -trace
// run's.
func TestRunDeclinedStreamFallsBack(t *testing.T) {
	var cached, scratch, errw bytes.Buffer
	base := []string{"-fig", "1", "-class", "S", "-benches", "LU", "-quiet"}
	if err := run(base, &cached, &errw); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"8 cells simulated (0 replayed from 1 streams)",
		"sweep: LU miss-stream replay declined (EventSet); its cells ran from scratch",
	} {
		if !strings.Contains(errw.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, errw.String())
		}
	}
	if err := run(append(base, "-trace", t.TempDir()), &scratch, io.Discard); err != nil {
		t.Fatal(err)
	}
	if cached.String() != scratch.String() {
		t.Error("LU Figure 1 stdout differs between the declined-stream fallback and from-scratch (-trace) cells")
	}
}

// TestRunUnmemoizedCellsCounted: cells that -trace or -metrics keep out
// of the cache still simulate, and the closing summary counts them.
func TestRunUnmemoizedCellsCounted(t *testing.T) {
	for _, flag := range []string{"-trace", "-metrics"} {
		var out, errw bytes.Buffer
		args := []string{"-fig", "4", "-class", "S", "-benches", "BT,CG", "-quiet", flag, t.TempDir()}
		if err := run(args, &out, &errw); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(errw.String(), "sweep: 24 cells simulated (0 replayed from 0 streams), 0 recalled from cache") {
			t.Errorf("%s summary miscounts the 24 simulated cells:\n%s", flag, errw.String())
		}
	}
}

// TestRunStoreWarmStart is the CLI-level acceptance check for -store:
// `sweep -all -store dir` twice must produce byte-identical stdout, with
// the second run simulating nothing — every cell recalled from disk —
// and a third run into a fresh store must write byte-identical records.
func TestRunStoreWarmStart(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "results")
	var cold, warm, errw bytes.Buffer
	base := []string{"-all", "-class", "S", "-quiet", "-store", store}
	if err := run(base, &cold, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errw.String(), "66 cells simulated") || !strings.Contains(errw.String(), "(66 newly stored)") {
		t.Errorf("cold summary lacks the store report:\n%s", errw.String())
	}
	errw.Reset()
	if err := run(base, &warm, &errw); err != nil {
		t.Fatal(err)
	}
	// 66 unique cells come off disk; the overlapping figure requests
	// (Figure 1 ⊂ Figure 4, Table 2 ⊆ Figure 4) still hit RAM.
	if !strings.Contains(errw.String(), "0 cells simulated (0 replayed from 0 streams), 66 recalled from cache, 66 from store (0 newly stored)") {
		t.Errorf("warm summary shows simulation:\n%s", errw.String())
	}
	if cold.String() != warm.String() {
		t.Error("sweep -all stdout differs between the cold and store-warmed run")
	}

	// Cross-directory record identity: a second store populated by an
	// independent process-equivalent run holds byte-identical files (the
	// invariant the CI smoke checks with diff -r).
	store2 := filepath.Join(dir, "results2")
	errw.Reset()
	if err := run([]string{"-all", "-class", "S", "-quiet", "-store", store2}, &cold, &errw); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(store, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 66 {
		t.Fatalf("store holds %d records, want 66", len(names))
	}
	for _, name := range names {
		a, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(store2, filepath.Base(name)))
		if err != nil {
			t.Fatalf("record missing from the second store: %v", err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("record %s differs between independent runs", filepath.Base(name))
		}
	}
}

// TestRunOutputDirValidation: every output flag fails up front, named,
// when its destination is unusable — before any cell simulates.
func TestRunOutputDirValidation(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(bad, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A plain file where a directory is needed fails MkdirAll regardless
	// of privilege (unlike permission bits, which root ignores).
	for _, flag := range []string{"-trace", "-metrics", "-store"} {
		var out, errw bytes.Buffer
		err := run([]string{"-fig", "1", "-class", "S", "-benches", "FT", "-quiet", flag, bad}, &out, &errw)
		if err == nil || !strings.Contains(err.Error(), flag+":") {
			t.Errorf("%s pointing at a file: err = %v, want it named after the flag", flag, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s failed validation but still swept", flag)
		}
	}
	var out, errw bytes.Buffer
	err := run([]string{"-table", "1", "-quiet", "-memprofile", filepath.Join(bad, "m.prof")}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "-memprofile") {
		t.Errorf("unwritable -memprofile: %v", err)
	}
}

// TestRunProfileFlags: -cpuprofile and -memprofile must produce
// non-empty profile files alongside a normal run.
func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	var out, errw bytes.Buffer
	args := []string{"-fig", "1", "-class", "S", "-benches", "FT", "-quiet",
		"-cpuprofile", cpu, "-memprofile", mem}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Errorf("profile not written: %v", err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(path))
		}
	}
	// An unwritable profile path is an error, not a silent no-op.
	bad := filepath.Join(dir, "no", "such", "dir", "cpu.prof")
	if err := run([]string{"-table", "1", "-quiet", "-cpuprofile", bad}, &out, &errw); err == nil {
		t.Error("unwritable -cpuprofile path did not fail")
	}
}

// TestRunMetricsDir is the CLI-level acceptance check for -metrics:
// `sweep -fig 1 -metrics dir` must drop the three export formats per
// cell plus the locality.md digest, and each JSON series must load back
// with one iteration sample per timed iteration.
func TestRunMetricsDir(t *testing.T) {
	dir := t.TempDir()
	var out, errw bytes.Buffer
	args := []string{"-fig", "1", "-class", "S", "-benches", "FT",
		"-quiet", "-metrics", dir}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	series, err := filepath.Glob(filepath.Join(dir, "*.metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Figure 1 on one benchmark has eight cells: four placements, each
	// with and without kernel migration.
	if len(series) != 8 {
		t.Fatalf("got %d metrics series, want 8: %v", len(series), series)
	}
	for _, path := range series {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		se, err := upmgo.ReadMetricsSeries(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s does not load: %v", filepath.Base(path), err)
		}
		var iters int
		for _, sm := range se.Samples {
			if sm.Kind == "iter" {
				iters++
			}
		}
		if iters == 0 || len(se.Heat) != iters {
			t.Errorf("%s: %d iteration samples, %d heatmaps", filepath.Base(path), iters, len(se.Heat))
		}
		base := strings.TrimSuffix(path, ".metrics.json")
		for _, sib := range []string{base + ".metrics.csv", base + ".prom"} {
			if fi, err := os.Stat(sib); err != nil || fi.Size() == 0 {
				t.Errorf("%s missing or empty (%v)", filepath.Base(sib), err)
			}
		}
	}
	loc, err := os.ReadFile(filepath.Join(dir, "locality.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"| Bench | Placement |", "IRIXmig", "| FT | wc |", ":1"} {
		if !strings.Contains(string(loc), want) {
			t.Errorf("locality.md lacks %q:\n%s", want, loc)
		}
	}
}

// TestRunMetricsAddr is the CLI-level acceptance check for the live
// endpoint: while `sweep -fig 1 -metrics-addr` has its server up, a
// scrape of /metrics must return well-formed Prometheus text carrying
// both the sweep-runner gauges and the per-cell NUMA families.
func TestRunMetricsAddr(t *testing.T) {
	var body, ctype string
	old := metricsServed
	metricsServed = func(addr string) {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			t.Errorf("scrape: %v", err)
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Errorf("scrape: %v", err)
			return
		}
		body, ctype = string(b), resp.Header.Get("Content-Type")
	}
	defer func() { metricsServed = old }()

	var out, errw bytes.Buffer
	args := []string{"-fig", "1", "-class", "S", "-benches", "FT",
		"-quiet", "-metrics-addr", "127.0.0.1:0"}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errw.String(), "serving /metrics") {
		t.Error("stderr does not announce the metrics server")
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("scrape content type %q", ctype)
	}
	for _, want := range []string{
		"# TYPE upmgo_sweep_cells_inflight gauge",
		"upmgo_sweep_cells_inflight 0",
		`upmgo_sweep_cells_done{result="simulated"} 8`,
		"upmgo_page_residency{cell=",
		`upmgo_refs{cell=`,
		"upmgo_build_info{",
		"# TYPE upmgo_sweep_cell_host_seconds histogram",
		"upmgo_sweep_cell_host_seconds_count{",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape lacks %q:\n%s", want, body)
		}
	}
}

// TestRunFigure5Traced is the CLI-level acceptance check for -trace:
// `sweep -fig 5 -trace dir` must render the figure and drop one
// Chrome-loadable JSON plus one text summary per cell, with exact
// picosecond timestamps in args.ps and the region spans contained in the
// iteration spans.
func TestRunFigure5Traced(t *testing.T) {
	dir := t.TempDir()
	var out, errw bytes.Buffer
	args := []string{"-fig", "5", "-class", "S", "-benches", "BT", "-quiet", "-trace", dir}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 5.") {
		t.Errorf("stdout lacks the figure:\n%s", out.String())
	}
	traces, err := filepath.Glob(filepath.Join(dir, "*.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Figure 5 on one benchmark has four bars: ft, ft-IRIXmig,
	// ft-upmlib, ft-recrep.
	if len(traces) != 4 {
		t.Fatalf("got %d trace files, want 4: %v", len(traces), traces)
	}
	for _, path := range traces {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var tr struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Ph   string         `json:"ph"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(blob, &tr); err != nil {
			t.Fatalf("%s is not Chrome-loadable JSON: %v", filepath.Base(path), err)
		}
		var iterPS, regionPS, open, regionOpen int64
		iters := 0
		insideIter := false
		for _, ev := range tr.TraceEvents {
			if ev.Ph != "B" && ev.Ph != "E" {
				continue
			}
			ps, ok := ev.Args["ps"].(float64)
			if !ok {
				t.Fatalf("%s: %s record for %q lacks args.ps", filepath.Base(path), ev.Ph, ev.Name)
			}
			switch {
			case ev.Name == "iteration" && ev.Ph == "B":
				open, insideIter = int64(ps), true
			case ev.Name == "iteration" && ev.Ph == "E":
				iterPS += int64(ps) - open
				iters++
				insideIter = false
			case ev.Name != "marked_phase" && ev.Ph == "B":
				regionOpen = int64(ps)
			case ev.Name != "marked_phase" && ev.Ph == "E":
				if insideIter { // skip cold-start regions outside the loop
					regionPS += int64(ps) - regionOpen
				}
			}
		}
		if iters == 0 || iterPS <= 0 {
			t.Errorf("%s: no timed iterations in the trace", filepath.Base(path))
		}
		if regionPS > iterPS {
			t.Errorf("%s: region spans (%d ps) exceed the iteration spans (%d ps)",
				filepath.Base(path), regionPS, iterPS)
		}
		summary := strings.TrimSuffix(path, ".trace.json") + ".summary.txt"
		txt, err := os.ReadFile(summary)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(txt), "phase breakdown") {
			t.Errorf("%s lacks the phase breakdown", filepath.Base(summary))
		}
	}
}

// TestRunStrayArgument: a stray argument prints the usage, then the
// error once, as a bad flag does (cli.Parse).
func TestRunStrayArgument(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{{"sweep", []string{"-fig", "1", "stray"}}} {
		var out, errw bytes.Buffer
		code := cli.Exit("sweep", run(c.args, &out, &errw), &errw)
		got, want := errw.String(), "\nsweep: unexpected arguments: stray\n"
		if code != 1 || !strings.HasPrefix(got, "Usage of "+c.name+":\n") || !strings.HasSuffix(got, want) {
			t.Errorf("%v: exit %d, stderr:\n%s\nwant exit 1, the usage of %s, then %q", c.args, code, got, c.name, want[1:])
		}
	}
}
