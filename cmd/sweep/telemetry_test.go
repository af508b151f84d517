package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"upmgo"
)

// TestRunTelemetryByteIdentity is the CLI-level acceptance check for the
// telemetry layer's bit-identity discipline: a sweep with -report and
// -log enabled must produce byte-identical simulated stdout and store
// records to a run without them, while the report file and the
// structured log carry the host-side story.
func TestRunTelemetryByteIdentity(t *testing.T) {
	dir := t.TempDir()
	store1 := filepath.Join(dir, "s1")
	store2 := filepath.Join(dir, "s2")
	rpt := filepath.Join(dir, "report.json")
	// -threads 8 is the Class S machine's full width, spelled out so the
	// report's host context has a width to carry.
	base := []string{"-all", "-class", "S", "-threads", "8", "-quiet"}

	var plain, telem, errw bytes.Buffer
	if err := run(append(base, "-store", store1), &plain, &errw); err != nil {
		t.Fatal(err)
	}
	errw.Reset()
	if err := run(append(base, "-store", store2, "-report", rpt, "-log", "json"), &telem, &errw); err != nil {
		t.Fatal(err)
	}
	if plain.String() != telem.String() {
		t.Error("sweep -all stdout differs with -report/-log enabled")
	}

	// Store records: byte-identical across the plain and telemetry runs.
	names, err := filepath.Glob(filepath.Join(store1, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatal("plain run stored no records")
	}
	for _, name := range names {
		a, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(store2, filepath.Base(name)))
		if err != nil {
			t.Fatalf("record missing from the telemetry run's store: %v", err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("record %s differs with telemetry enabled", filepath.Base(name))
		}
	}

	// The structured log carries per-cell completions and the final
	// sweep summary as JSON slog lines.
	logText := errw.String()
	for _, want := range []string{`"msg":"cell"`, `"kind":"replayed"`, `"virtual_s":`, `"msg":"sweep"`} {
		if !strings.Contains(logText, want) {
			t.Errorf("-log json stderr lacks %q", want)
		}
	}
	if !strings.Contains(logText, "report written to") {
		t.Error("stderr does not announce the report file")
	}
	// Every cell line names its store address, the identity the label
	// lacks: each address is a record in the run's store, and distinct
	// addresses outnumber distinct labels (Figure 5's scaled cells share
	// Figure 4's labels).
	addrs, labels := map[string]bool{}, map[string]bool{}
	for _, line := range strings.Split(logText, "\n") {
		var rec struct{ Msg, Bench, Label, Address string }
		if json.Unmarshal([]byte(line), &rec) != nil || rec.Msg != "cell" {
			continue
		}
		if rec.Address == "" {
			t.Errorf("cell line lacks an address: %s", line)
			continue
		}
		if _, err := os.Stat(filepath.Join(store2, rec.Address+".json")); err != nil {
			t.Errorf("logged address %s has no store record: %v", rec.Address, err)
		}
		addrs[rec.Address] = true
		labels[rec.Bench+" "+rec.Label] = true
	}
	if len(addrs) <= len(labels) {
		t.Errorf("%d logged addresses for %d labels, want more addresses", len(addrs), len(labels))
	}

	// The report file loads back as a SweepReport with the host-time
	// story: every finished cell counted, stages attributed, the
	// slowest cells ranked.
	blob, err := os.ReadFile(rpt)
	if err != nil {
		t.Fatal(err)
	}
	var sr upmgo.SweepReport
	if err := json.Unmarshal(blob, &sr); err != nil {
		t.Fatalf("report is not a SweepReport: %v", err)
	}
	if sr.Cells < 66 {
		t.Errorf("report counts %d cell runs, want at least the 66 unique cells", sr.Cells)
	}
	if sr.HostSeconds <= 0 || sr.WallSeconds <= 0 {
		t.Errorf("report lacks host/wall time: host=%v wall=%v", sr.HostSeconds, sr.WallSeconds)
	}
	if sr.ByKind[upmgo.FastPathReplayed] == 0 || sr.ByKind[upmgo.FastPathFullSim] != 0 {
		t.Errorf("report kinds %v, want replayed cells and no full_sim ones", sr.ByKind)
	}
	if sr.Stages.TimedLoop <= 0 {
		t.Errorf("report stages lack timed-loop seconds: %+v", sr.Stages)
	}
	if len(sr.Slowest) != 5 {
		t.Errorf("report ranks %d slowest cells, want 5", len(sr.Slowest))
	}
	if a := sr.Attributed(); a <= 0 || a > 1 {
		t.Errorf("stage attribution %v outside (0, 1]", a)
	}
	if h := sr.Host; h == nil || h.NumCPU <= 0 || h.GOMAXPROCS <= 0 || h.Jobs <= 0 || h.Threads != 8 || h.CodeVersion == "" {
		t.Errorf("report lacks its host context: %+v", sr.Host)
	}
}

// TestRunProgressETA: the live progress line shows batch-elapsed time
// and an ETA derived from completed cells' host durations.
func TestRunProgressETA(t *testing.T) {
	var out, errw bytes.Buffer
	args := []string{"-fig", "1", "-class", "S", "-benches", "FT"}
	if err := run(args, &out, &errw); err != nil {
		t.Fatal(err)
	}
	text := errw.String()
	if !strings.Contains(text, " eta ") {
		t.Errorf("progress line lacks an ETA:\n%s", text)
	}
	if !strings.Contains(text, "[8/8]") {
		t.Errorf("progress line never reached the batch total:\n%s", text)
	}
}

// TestRunTelemetryFlagValidation: a bad -log format or an unwritable
// -report path fails up front, named after its flag.
func TestRunTelemetryFlagValidation(t *testing.T) {
	var out, errw bytes.Buffer
	err := run([]string{"-table", "1", "-quiet", "-log", "yaml"}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "-log") {
		t.Errorf("-log yaml: err = %v, want it named after the flag", err)
	}
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "report.json")
	out.Reset()
	err = run([]string{"-table", "1", "-quiet", "-report", bad}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "-report") {
		t.Errorf("unwritable -report: err = %v, want it named after the flag", err)
	}
}

// TestLogCellOmitsMissingAddress: a cell that cannot be memoized has no
// store address, and its log line leaves the attribute out rather than
// printing an empty one.
func TestLogCellOmitsMissingAddress(t *testing.T) {
	for _, addr := range []string{"", "abc123"} {
		var buf bytes.Buffer
		logger, err := newLogger("text", &buf)
		if err != nil {
			t.Fatal(err)
		}
		logCell(logger, upmgo.SweepEvent{Done: true, Report: &upmgo.CellReport{Address: addr}})
		if got := strings.Contains(buf.String(), "address="); got != (addr != "") {
			t.Errorf("address %q: log line %q", addr, buf.String())
		}
	}
}
