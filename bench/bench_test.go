package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"upmgo"
)

// TestMain lets the test binary serve as the harness's worker process,
// as the harness binary does.
func TestMain(m *testing.M) {
	if spec := os.Getenv(workerEnv); spec != "" {
		os.Exit(workerMain(spec, os.Stderr))
	}
	os.Exit(m.Run())
}

type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }  `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesHarness pins BENCHMARK.json to the harness:
// the same workloads (name and why) and the same metrics with the same
// units, in the same order.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), harness %q (%q)",
				i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	for _, l := range []struct {
		name string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(l.json) != len(l.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness %d", l.name, len(l.json), len(l.defs))
			continue
		}
		for i, m := range l.json {
			if m.Name != l.defs[i].name || m.Unit != l.defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], harness %s [%s]",
					l.name, i, m.Name, m.Unit, l.defs[i].name, l.defs[i].unit)
			}
		}
	}
}

// TestSmoke runs a tiny workload (BT's Class S Figure 1 and 4 cells, one
// repetition, no profile) through the real harness and worker process.
// It checks that every metric BENCHMARK.json names is emitted with its
// unit, and that a broken paper-shape anchor fails the run, naming the
// cell.
func TestSmoke(t *testing.T) {
	smoke := workload{Name: "smoke", Reps: 1,
		Kinds: []upmgo.SweepKind{upmgo.KindFigure1, upmgo.KindFigure4},
		Opts:  upmgo.SweepOptions{Class: upmgo.ClassS, Benches: []string{"BT"}}}
	h := &harness{seed: 42, jobs: 2, out: t.TempDir(), stderr: os.Stderr}
	if err := h.setUp(); err != nil {
		t.Fatal(err)
	}
	runs := h.measure(context.Background(), []workload{smoke})
	wr := runs[0]
	if len(wr.reps) != 1 || len(wr.reps[0].Cells) != 12 {
		t.Fatalf("want one repetition of 12 cells, got %d repetitions (problems: %v)", len(wr.reps), wr.problems)
	}
	var stdout, stderr bytes.Buffer
	if code := h.finish(runs, nil, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d:\n%s%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line: %v", err)
	}
	if !res.Correct || res.Attempted != 20 || res.Failed != 0 {
		t.Errorf("result = correct %t, attempted %d, failed %d; want true, 20, 0", res.Correct, res.Attempted, res.Failed)
	}
	b := readBenchmarkJSON(t)
	for _, m := range b.EndToEnd {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || got.Value <= 0 {
			t.Errorf("end-to-end metric %s: got %+v (present %t), want a positive value in %s", m.Name, got, ok, m.Unit)
		}
	}

	// The per-layer set, from the same repetition standing in for the
	// traced one, and stand-ins for its profile and the probe worker.
	wr.traced, wr.shares = &wr.reps[0], map[string]float64{}
	probes := map[string]float64{}
	for _, d := range perLayer {
		probes[d.name] = 1
	}
	got := map[string]string{}
	for _, m := range wr.metrics(probes, -1) {
		got[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		if got[m.Name] != m.Unit {
			t.Errorf("per-layer metric %s: unit %q, want %q", m.Name, got[m.Name], m.Unit)
		}
	}

	// Make wc-IRIX the fastest IRIX bar: the run must fail and say where.
	wr.traced, wr.shares = nil, nil
	for i, c := range wr.reps[0].Cells {
		if c.Label == "wc-IRIX" {
			wr.reps[0].Cells[i].VirtualS = 0
		}
	}
	stdout.Reset()
	stderr.Reset()
	if code := h.finish(runs, nil, &stdout, &stderr); code == 0 {
		t.Fatalf("anchor violation exited 0:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "BT wc-IRIX classS") {
		t.Errorf("failure does not name the cell:\n%s", stderr.String())
	}
}
