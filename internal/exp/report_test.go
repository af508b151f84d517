package exp

import (
	"context"
	"runtime"
	"testing"

	"upmgo/internal/nas"
	"upmgo/internal/store"
)

// collectReports runs specs through r and returns the finished events'
// reports in presentation order.
func collectReports(t *testing.T, r Runner, specs []CellSpec) []*CellReport {
	t.Helper()
	reports := make([]*CellReport, len(specs))
	r.OnEvent = func(ev Event) {
		if ev.Done {
			reports[ev.Index] = ev.Report
		}
	}
	if _, err := r.Cells(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	for i, rep := range reports {
		if rep == nil {
			t.Fatalf("cell %d finished without a report", i)
		}
	}
	return reports
}

// TestCellReportSimulated: a fresh simulation's report carries simulated
// provenance, the right fast-path kind, and a stage breakdown that is
// positive and bounded by the cell's total host time.
func TestCellReportSimulated(t *testing.T) {
	specs := []CellSpec{
		{Bench: "BT", Config: nas.Config{Class: nas.ClassS, Iterations: 12,
			SteadyState: true, Extrapolate: true}},
		{Bench: "BT", Config: nas.Config{Class: nas.ClassS, Iterations: 4}},
	}
	reports := collectReports(t, Runner{Jobs: 1, Cache: NewCache()}, specs)

	steady, plain := reports[0], reports[1]
	if steady.Source != SourceSimulated || plain.Source != SourceSimulated {
		t.Fatalf("fresh cells not marked simulated: %q, %q", steady.Source, plain.Source)
	}
	// The kind is FastPathSteadyP1 exactly when Result.ExtrapolatedIters > 0.
	if steady.Kind != FastPathSteadyP1 {
		t.Errorf("steady cell kind = %q, want %q (fastpath %+v)", steady.Kind, FastPathSteadyP1, steady.FastPath)
	}
	if steady.FastPath.WhyNot != nil {
		t.Errorf("steady cell fastpath = %+v, want nil WhyNot", steady.FastPath)
	}
	if steady.Stages.Extrapolate <= 0 {
		t.Errorf("steady cell charges no extrapolation time: %+v", steady.Stages)
	}
	if plain.Kind != FastPathReplayed {
		t.Errorf("plain cell kind = %q, want %q", plain.Kind, FastPathReplayed)
	}
	for _, rep := range reports {
		if rep.HostSeconds <= 0 {
			t.Errorf("%s %s: host seconds %v, want > 0", rep.Bench, rep.Label, rep.HostSeconds)
		}
		sum := rep.Stages.Sum()
		if sum <= 0 {
			t.Errorf("%s %s: no host time attributed: %+v", rep.Bench, rep.Label, rep.Stages)
		}
		// Every stage interval nests inside the worker's host window, so
		// the attributed sum can only trail the total, modulo clock
		// granularity — a 1ms allowance keeps the assertion robust on
		// coarse-clock platforms.
		if sum > rep.HostSeconds+1e-3 {
			t.Errorf("%s %s: attributed %.6fs exceeds host %.6fs", rep.Bench, rep.Label, sum, rep.HostSeconds)
		}
		if rep.Stages.TimedLoop <= 0 {
			t.Errorf("%s %s: simulated cell charges no timed-loop time: %+v", rep.Bench, rep.Label, rep.Stages)
		}
		if rep.Stages.Recall != 0 || rep.Stages.StoreProbe != 0 {
			t.Errorf("%s %s: simulated, storeless cell charges recall/store stages: %+v", rep.Bench, rep.Label, rep.Stages)
		}
		if rep.Label == "" || rep.Class != "S" || rep.Bench != "BT" {
			t.Errorf("mislabelled report: %+v", rep)
		}
	}
}

// TestCellReportRecalled: the same batch replayed against a warm cache
// reports memory provenance, the recalled kind, and attributes the
// (tiny) host cost to the recall pseudo-stage — the property that keeps
// warm-sweep attribution near-total.
func TestCellReportRecalled(t *testing.T) {
	specs := []CellSpec{{Bench: "CG", Config: nas.Config{Class: nas.ClassS, Iterations: 4}}}
	r := Runner{Jobs: 1, Cache: NewCache()}
	collectReports(t, r, specs)
	reports := collectReports(t, r, specs)

	rep := reports[0]
	if rep.Source != SourceMemory {
		t.Fatalf("warm cell source = %q, want %q", rep.Source, SourceMemory)
	}
	if rep.Kind != FastPathRecalled {
		t.Errorf("warm cell kind = %q, want %q", rep.Kind, FastPathRecalled)
	}
	if rep.Stages.Recall <= 0 {
		t.Errorf("warm cell charges no recall time: %+v", rep.Stages)
	}
	if rep.Stages.TimedLoop != 0 || rep.Stages.Prefix != 0 {
		t.Errorf("warm cell charges simulation stages: %+v", rep.Stages)
	}
}

// TestCellReportStoreRecalled: a cell recalled from the on-disk store by
// a cold process reports store provenance and charges the probe.
func TestCellReportStoreRecalled(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs := []CellSpec{{Bench: "SP", Config: nas.Config{Class: nas.ClassS, Iterations: 4}}}

	warm := NewCache()
	warm.SetStore(st)
	collectReports(t, Runner{Jobs: 1, Cache: warm}, specs)

	cold := NewCache()
	cold.SetStore(st)
	reports := collectReports(t, Runner{Jobs: 1, Cache: cold}, specs)
	rep := reports[0]
	if rep.Source != SourceStore {
		t.Fatalf("disk-recalled cell source = %q, want %q", rep.Source, SourceStore)
	}
	if rep.Kind != FastPathRecalled {
		t.Errorf("disk-recalled cell kind = %q, want %q", rep.Kind, FastPathRecalled)
	}
	if rep.Stages.StoreProbe <= 0 {
		t.Errorf("disk-recalled cell charges no store probe: %+v", rep.Stages)
	}
}

// TestCellReportWhyNotFlows: a steady-armed cell whose loop is too short
// carries its typed refusal through to the report, and the sweep
// aggregation buckets it.
func TestCellReportWhyNotFlows(t *testing.T) {
	specs := []CellSpec{{Bench: "BT", Config: nas.Config{Class: nas.ClassS,
		Iterations: 3, SteadyState: true, Extrapolate: true}}}
	reports := collectReports(t, Runner{Jobs: 1, Cache: NewCache()}, specs)
	w := reports[0].FastPath.WhyNot
	if w == nil || w.Reason != nas.WhyNotLoopTooShort {
		t.Fatalf("report WhyNot = %+v, want reason %q", w, nas.WhyNotLoopTooShort)
	}
	sr := BuildSweepReport(reports, 0)
	if len(sr.WhyNot) != 1 || sr.WhyNot[0].Reason != string(nas.WhyNotLoopTooShort) || sr.WhyNot[0].Count != 1 {
		t.Fatalf("sweep why-not histogram = %+v", sr.WhyNot)
	}
	if len(sr.WhyNot[0].Cells) != 1 || sr.WhyNot[0].Cells[0] != "BT "+specs[0].Config.Label()+" classS" {
		t.Errorf("histogram does not name the cell: %+v", sr.WhyNot[0].Cells)
	}
}

// TestCellReportRecalledNoWhyNot: a why-not describes the run that
// declined, so only the simulating cell reports it. The same cell
// recalled from RAM (same Cache) or from the store (a fresh Cache on the
// same store) ran nothing and declined nothing.
func TestCellReportRecalledNoWhyNot(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs := []CellSpec{{Bench: "BT", Config: nas.Config{Class: nas.ClassS,
		Iterations: 3, SteadyState: true, Extrapolate: true}}}
	warm := NewCache()
	warm.SetStore(st)
	r := Runner{Jobs: 1, Cache: warm}
	simulated := collectReports(t, r, specs)[0]
	if w := simulated.FastPath.WhyNot; simulated.Source != SourceSimulated || w == nil || w.Reason != nas.WhyNotLoopTooShort {
		t.Fatalf("simulating cell: source %q, WhyNot %+v; want %q, reason %q",
			simulated.Source, w, SourceSimulated, nas.WhyNotLoopTooShort)
	}
	cold := NewCache()
	cold.SetStore(st)
	for _, c := range []struct {
		source string
		r      Runner
	}{{SourceMemory, r}, {SourceStore, Runner{Jobs: 1, Cache: cold}}} {
		rep := collectReports(t, c.r, specs)[0]
		if rep.Source != c.source {
			t.Fatalf("recalled cell source %q, want %q", rep.Source, c.source)
		}
		if rep.FastPath.WhyNot != nil {
			t.Errorf("cell recalled from %s reports WhyNot %+v", c.source, rep.FastPath.WhyNot)
		}
		if sr := BuildSweepReport([]*CellReport{rep}, 0); len(sr.WhyNot) != 0 {
			t.Errorf("cell recalled from %s fills the why-not histogram: %+v", c.source, sr.WhyNot)
		}
	}
}

// TestBuildSweepReport: aggregation arithmetic and ordering on synthetic
// reports — kind and source counts, replays and declines, stage sums,
// top-N slowest, attribution, and the deterministic why-not ordering
// (count desc, then reason asc).
func TestBuildSweepReport(t *testing.T) {
	why := func(reason nas.WhyNotReason) nas.FastPath {
		return nas.FastPath{WhyNot: &nas.WhyNot{Reason: reason}}
	}
	reports := []*CellReport{
		{Bench: "BT", Label: "ft", Class: "W", Source: SourceSimulated, Kind: FastPathFullSim,
			HostSeconds: 4, Stages: StageSeconds{TimedLoop: 3, Verify: 0.5}, FastPath: why(nas.WhyNotAperiodic)},
		{Bench: "SP", Label: "ft", Class: "W", Source: SourceSimulated, Kind: FastPathSteadyP1,
			HostSeconds: 2, Stages: StageSeconds{TimedLoop: 1, Extrapolate: 0.5}, Replayed: true},
		{Bench: "CG", Label: "ft", Class: "W", Source: SourceMemory, Kind: FastPathRecalled,
			HostSeconds: 0.25, Stages: StageSeconds{Recall: 0.25}},
		nil, // a cell that never reported is skipped, not counted
		{Bench: "MG", Label: "ft-kmig", Class: "W", Source: SourceSimulated, Kind: FastPathFullSim,
			HostSeconds: 8, Stages: StageSeconds{TimedLoop: 7}, FastPath: why(nas.WhyNotHomesMoving)},
		{Bench: "FT", Label: "ft-kmig", Class: "W", Source: SourceSimulated, Kind: FastPathFullSim,
			HostSeconds: 6, Stages: StageSeconds{TimedLoop: 5}, FastPath: why(nas.WhyNotHomesMoving),
			ReplayDeclined: "EventSet"},
	}
	sr := BuildSweepReport(reports, 2)
	if sr.Cells != 5 {
		t.Errorf("cells = %d, want 5", sr.Cells)
	}
	if sr.HostSeconds != 20.25 {
		t.Errorf("host seconds = %v, want 20.25", sr.HostSeconds)
	}
	if sr.ByKind[FastPathFullSim] != 3 || sr.ByKind[FastPathSteadyP1] != 1 || sr.ByKind[FastPathRecalled] != 1 {
		t.Errorf("by-kind = %v", sr.ByKind)
	}
	if sr.BySource[SourceSimulated] != 4 || sr.BySource[SourceMemory] != 1 || len(sr.BySource) != 2 {
		t.Errorf("by-source = %v", sr.BySource)
	}
	if sr.Replayed != 1 || len(sr.Declined) != 1 || sr.Declined["FT"] != "EventSet" {
		t.Errorf("replayed = %d, declined = %v; want 1, FT's EventSet", sr.Replayed, sr.Declined)
	}
	if sr.Stages.TimedLoop != 16 || sr.Stages.Recall != 0.25 {
		t.Errorf("stage sums = %+v", sr.Stages)
	}
	if len(sr.Slowest) != 2 || sr.Slowest[0].Bench != "MG" || sr.Slowest[1].Bench != "FT" {
		t.Errorf("slowest = %+v", sr.Slowest)
	}
	if got, want := sr.Attributed(), (3+0.5+1+0.5+0.25+7+5)/20.25; got != want {
		t.Errorf("attributed = %v, want %v", got, want)
	}
	if len(sr.WhyNot) != 2 ||
		sr.WhyNot[0].Reason != string(nas.WhyNotHomesMoving) || sr.WhyNot[0].Count != 2 ||
		sr.WhyNot[1].Reason != string(nas.WhyNotAperiodic) || sr.WhyNot[1].Count != 1 {
		t.Errorf("why-not histogram = %+v", sr.WhyNot)
	}
	// Cell lists are sorted, not completion-ordered: concurrent sweeps
	// finish cells in a racy order, and the report must not leak it.
	if sr.WhyNot[0].Cells[0] != "FT ft-kmig classW" || sr.WhyNot[0].Cells[1] != "MG ft-kmig classW" {
		t.Errorf("histogram cells = %+v", sr.WhyNot[0].Cells)
	}
}

// TestHostContext: the host context names this process's CPUs and
// scheduler width, the sweep's jobs and threads and the simulator's
// code version, and renders as one line.
func TestHostContext(t *testing.T) {
	h := HostContext(3, 16)
	if h.NumCPU != runtime.NumCPU() || h.GOMAXPROCS != runtime.GOMAXPROCS(0) ||
		h.Jobs != 3 || h.Threads != 16 || h.CodeVersion != store.CodeVersion {
		t.Errorf("HostContext(3, 16) = %+v", h)
	}
	h.NumCPU, h.GOMAXPROCS, h.CodeVersion, h.Revision = 2, 2, "v", ""
	if got, want := h.String(), "num_cpu=2 gomaxprocs=2 jobs=3 threads=16 code_version=v"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	h.Revision = "abc+dirty"
	if got, want := h.String(), "num_cpu=2 gomaxprocs=2 jobs=3 threads=16 code_version=v revision=abc+dirty"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
