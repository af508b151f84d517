package exp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"upmgo/internal/machine"
	"upmgo/internal/nas"
	"upmgo/internal/store"
)

// FastPathKind classifies how a cell's answer was obtained, from
// cheapest to most expensive. The classification is strictly ordered:
// a recalled cell is "recalled" even if the process that originally
// simulated it extrapolated.
type FastPathKind string

const (
	// FastPathRecalled: served from the RAM cache, an in-flight
	// duplicate, or the on-disk store — no simulation at all.
	FastPathRecalled FastPathKind = "recalled"
	// FastPathReplayed: the cell replayed its benchmark's recorded
	// L2-miss stream instead of simulating the caches.
	FastPathReplayed FastPathKind = "replayed"
	// FastPathCampaign is a legacy kind: it appears only in reports
	// written before the analytic campaign drain was removed, and no
	// current run is classified as it.
	FastPathCampaign FastPathKind = "campaign_ff"
	// FastPathSteadyPK is a legacy kind: it appears only in reports
	// written while the detector also proved longer orbits, and no
	// current run is classified as it.
	FastPathSteadyPK FastPathKind = "steady_period_k"
	// FastPathSteadyP1: a period-one steady state was proven and the
	// tail extrapolated.
	FastPathSteadyP1 FastPathKind = "steady_period_1"
	// FastPathFullSim: every iteration was simulated.
	FastPathFullSim FastPathKind = "full_sim"
)

// FastPathKinds is the presentation order of the kinds (cheapest first),
// shared with cmd/traceview's report renderer.
var FastPathKinds = []FastPathKind{
	FastPathRecalled, FastPathReplayed, FastPathSteadyP1, FastPathFullSim,
}

// StageSeconds is a cell's (or a sweep's) host wall-time split by stage,
// in seconds. The named stages are nas.HostStages' plus two that only
// exist at the sweep layer: StoreProbe (the on-disk store lookup,
// charged by exp.Cache) and Recall (everything a recalled cell spent
// that was not the store probe — map lookups, waiting on an in-flight
// duplicate's simulation). The residual Host − Sum() is scheduling
// noise: goroutine wakeups, channel sends, the event callback.
type StageSeconds struct {
	StoreProbe  float64 `json:"store_probe,omitempty"`
	Recall      float64 `json:"recall,omitempty"`
	Record      float64 `json:"record,omitempty"`
	Prefix      float64 `json:"prefix,omitempty"`
	Fork        float64 `json:"fork,omitempty"`
	TimedLoop   float64 `json:"timed_loop,omitempty"`
	Extrapolate float64 `json:"extrapolate,omitempty"`
	FreeRunTail float64 `json:"free_run_tail,omitempty"`
	Verify      float64 `json:"verify,omitempty"`
}

// Sum returns the total seconds attributed to named stages.
func (s StageSeconds) Sum() float64 {
	return s.StoreProbe + s.Recall + s.Record + s.Prefix + s.Fork +
		s.TimedLoop + s.Extrapolate + s.FreeRunTail + s.Verify
}

// add accumulates o into s.
func (s *StageSeconds) add(o StageSeconds) {
	s.StoreProbe += o.StoreProbe
	s.Recall += o.Recall
	s.Record += o.Record
	s.Prefix += o.Prefix
	s.Fork += o.Fork
	s.TimedLoop += o.TimedLoop
	s.Extrapolate += o.Extrapolate
	s.FreeRunTail += o.FreeRunTail
	s.Verify += o.Verify
}

// Each calls f with each stage's name and value in presentation order,
// shared by cmd/traceview's renderer.
func (s StageSeconds) Each(f func(name string, seconds float64)) {
	f("store_probe", s.StoreProbe)
	f("recall", s.Recall)
	f("record", s.Record)
	f("prefix", s.Prefix)
	f("fork", s.Fork)
	f("timed_loop", s.TimedLoop)
	f("extrapolate", s.Extrapolate)
	f("free_run_tail", s.FreeRunTail)
	f("verify", s.Verify)
}

// CellReport is one cell's host-side telemetry: where its answer came
// from, which fast paths engaged (or a typed WhyNot when none did), and
// where its host wall-time went. Telemetry only — it carries no virtual
// quantity that is not already in the Cell, and producing it never
// perturbs the simulation (see nas.HostStages).
type CellReport struct {
	Bench string `json:"bench"`
	Label string `json:"label"`
	Class string `json:"class"`
	// Address is the cell's store address (store.Address of its memo
	// key): its identity, unlike the label. Empty for cells that cannot
	// be memoized.
	Address string `json:"address,omitempty"`
	// Source is SourceMemory, SourceStore or SourceSimulated.
	Source string       `json:"source"`
	Kind   FastPathKind `json:"kind"`
	// Replayed: the cell replayed its benchmark's recorded miss stream.
	// A steady cell that replayed keeps its steady Kind, so this, not
	// Kind, counts a sweep's replays.
	Replayed bool `json:"replayed,omitempty"`
	// ReplayDeclined names why the cell's miss-stream recording could
	// not be replayed (the cell ran from scratch instead).
	ReplayDeclined string `json:"replay_declined,omitempty"`
	// Recording, on the cell that led its benchmark's miss-stream
	// recording, says how many timed steps the recording simulated and
	// where its cache-side state started to repeat, or why it never did.
	Recording *nas.Compression `json:"recording,omitempty"`
	// Stored, on the same cell, is what the recorded stream stores: its
	// varint head and, once it repeated, its block and the block's
	// decoded records.
	Stored *machine.StreamSize `json:"stored,omitempty"`
	// HostSeconds is the cell's total host wall-time as seen by the
	// goroutine that ran (or waited for) it, plus, on the cell that led
	// a recording, the host time of the stream's verdict task; Stages
	// attributes it.
	HostSeconds    float64      `json:"host_seconds"`
	VirtualSeconds float64      `json:"virtual_seconds"`
	Stages         StageSeconds `json:"stages"`
	FastPath       nas.FastPath `json:"fast_path"`
}

// newCellReport assembles the per-cell report from the run's host-stage
// sink and the cache's provenance record. HostSeconds, which starts at
// the verdict task the cell led, and the Recall pseudo-stage are
// completed by setHost, once the goroutine knows the cell's wall-time.
func newCellReport(spec CellSpec, c Cell, meta *cellMeta, hs *nas.HostStages) *CellReport {
	label := c.Label
	if label == "" {
		label = spec.Config.Label()
	}
	rep := &CellReport{
		Bench:          spec.Bench,
		Label:          label,
		Class:          spec.Config.Class.String(),
		Source:         meta.source,
		Replayed:       meta.replayed,
		ReplayDeclined: meta.declined,
		Recording:      meta.recording,
		Stored:         meta.stored,
		HostSeconds:    meta.verdict.Seconds(),
		VirtualSeconds: c.Seconds(),
		FastPath:       c.Result.FastPath,
		Stages: StageSeconds{
			StoreProbe:  meta.storeProbe.Seconds(),
			Record:      hs.Record.Seconds(),
			Prefix:      hs.Prefix.Seconds(),
			Fork:        hs.Fork.Seconds(),
			TimedLoop:   hs.TimedLoop.Seconds(),
			Extrapolate: hs.Extrapolate.Seconds(),
			FreeRunTail: hs.FreeRunTail.Seconds(),
			Verify:      hs.Verify.Seconds(),
		},
	}
	if key, ok := spec.Key(); ok {
		rep.Address = store.Address(key)
	}
	rep.Kind = classifyFastPath(rep.Source, rep.Replayed, c.Result)
	return rep
}

// setHost adds the cell's wall-time to its host time and derives the
// Recall pseudo-stage: a recalled cell's time is, by definition,
// everything it spent that was not the store probe (map lookups,
// waiting on an in-flight duplicate). This is what keeps the sweep
// report's attribution near-total for warm sweeps.
func (cr *CellReport) setHost(d time.Duration) {
	cr.HostSeconds += d.Seconds()
	if cr.Source != SourceSimulated {
		if rec := cr.HostSeconds - cr.Stages.StoreProbe; rec > 0 {
			cr.Stages.Recall = rec
		}
	}
}

// classifyFastPath folds provenance and the run's fast-path flags into
// the single strongest kind. A replayed cell that extrapolated keeps its
// steady kind, so steady cells are counted as such whichever way their
// caches were served.
func classifyFastPath(source string, replayed bool, r nas.Result) FastPathKind {
	switch {
	case source != SourceSimulated:
		return FastPathRecalled
	case r.ExtrapolatedIters > 0:
		return FastPathSteadyP1
	case replayed:
		return FastPathReplayed
	default:
		return FastPathFullSim
	}
}

// WhyNotCount is one bucket of a sweep's why-not histogram: how many
// fully simulated cells declined the fast path for this reason, and
// which ones (as "BENCH label classC" strings, sorted — completion
// order is a race under concurrent jobs).
type WhyNotCount struct {
	Reason string   `json:"reason"`
	Count  int      `json:"count"`
	Cells  []string `json:"cells"`
}

// SweepReport aggregates a sweep's CellReports: the shape a maintainer
// reads to answer "where did the host time of this sweep go, and which
// cells refused to fast-forward". Written by `sweep -report`, rendered
// by `traceview report`.
type SweepReport struct {
	// Cells is the number of cells reported on.
	Cells int `json:"cells"`
	// HostSeconds is the sum of per-cell host wall-time. It counts the
	// time cells spend waiting without a job slot too, so with J jobs it
	// can exceed the sweep's elapsed time by more than a factor of J.
	HostSeconds float64 `json:"host_seconds"`
	// WallSeconds is the sweep's elapsed wall-clock, when the caller
	// measured it (cmd/sweep does); zero otherwise.
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	// ByKind counts cells by FastPathKind, cheapest kind first.
	ByKind map[FastPathKind]int `json:"cells_by_kind"`
	// BySource counts cells by where their result came from
	// (SourceSimulated, SourceMemory or SourceStore).
	BySource map[string]int `json:"cells_by_source,omitempty"`
	// Replayed counts the cells that replayed a recorded miss stream.
	Replayed int `json:"replayed,omitempty"`
	// Declined maps each benchmark whose miss-stream recording declined
	// to the reason; its cells ran from scratch.
	Declined map[string]string `json:"replay_declined,omitempty"`
	// Stages is the stage-attributed share of HostSeconds, summed over
	// all cells.
	Stages StageSeconds `json:"stage_seconds"`
	// Slowest lists the top-N cells by host time, slowest first.
	Slowest []CellReport `json:"slowest,omitempty"`
	// WhyNot is the histogram of typed fast-path refusals, largest
	// bucket first (ties alphabetical).
	WhyNot []WhyNotCount `json:"why_not,omitempty"`
	// Recordings lists the miss-stream recordings the sweep made, in
	// presentation order, each with the cell that led it.
	Recordings []RecordingReport `json:"recordings,omitempty"`
	// Host is the context the sweep ran in, when the caller recorded it
	// (cmd/sweep does); nil otherwise.
	Host *Host `json:"host,omitempty"`
}

// Host is the context a sweep's timings were measured in: the host's
// CPUs, the Go scheduler's width, the sweep's worker count and team
// size, and the simulator build.
type Host struct {
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
	Jobs       int `json:"jobs"`
	// Threads is the simulated team size of every cell, 0 for all of
	// each machine's CPUs.
	Threads     int    `json:"threads"`
	CodeVersion string `json:"code_version"`
	// Revision is the VCS revision the binary was built from, with
	// "+dirty" when the tree had local changes; empty when the build
	// recorded none (go run, go test).
	Revision string `json:"revision,omitempty"`
}

// HostContext returns the Host of this process for a sweep run with
// the given worker count and team size.
func HostContext(jobs, threads int) Host {
	h := Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Jobs: jobs, Threads: threads, CodeVersion: store.CodeVersion}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				h.Revision = kv.Value
			case "vcs.modified":
				dirty = kv.Value == "true"
			}
		}
		if dirty && h.Revision != "" {
			h.Revision += "+dirty"
		}
	}
	return h
}

// String renders h as one line of key=value pairs.
func (h Host) String() string {
	s := fmt.Sprintf("num_cpu=%d gomaxprocs=%d jobs=%d threads=%d code_version=%s",
		h.NumCPU, h.GOMAXPROCS, h.Jobs, h.Threads, h.CodeVersion)
	if h.Revision != "" {
		s += " revision=" + h.Revision
	}
	return s
}

// RecordingReport is one miss-stream recording of a sweep: the cell
// that led it, how many of its timed steps simulated the caches, and
// what its stream stores: head bytes, block bytes, the block's repeat
// count and its decoded bytes.
type RecordingReport struct {
	Bench       string             `json:"bench"`
	Label       string             `json:"label"`
	Class       string             `json:"class"`
	Compression nas.Compression    `json:"compression"`
	Stored      machine.StreamSize `json:"stored"`
}

// Attributed returns the fraction of HostSeconds the named stages
// account for, in [0, 1]; 0 when nothing was reported.
func (sr SweepReport) Attributed() float64 {
	if sr.HostSeconds <= 0 {
		return 0
	}
	f := sr.Stages.Sum() / sr.HostSeconds
	if f > 1 {
		f = 1
	}
	return f
}

// BuildSweepReport aggregates reports into a SweepReport, keeping the
// topN slowest cells (topN <= 0 means 5). Nil entries (cells that never
// produced a report) are skipped. Ordering is deterministic given the
// reports: Slowest breaks host-time ties by presentation order, and the
// why-not histogram breaks count ties alphabetically by reason.
func BuildSweepReport(reports []*CellReport, topN int) SweepReport {
	if topN <= 0 {
		topN = 5
	}
	sr := SweepReport{ByKind: map[FastPathKind]int{}, BySource: map[string]int{}, Declined: map[string]string{}}
	var kept []CellReport
	whyCells := map[string][]string{}
	for _, r := range reports {
		if r == nil {
			continue
		}
		sr.Cells++
		sr.HostSeconds += r.HostSeconds
		sr.ByKind[r.Kind]++
		sr.BySource[r.Source]++
		if r.Replayed {
			sr.Replayed++
		}
		if r.ReplayDeclined != "" {
			sr.Declined[r.Bench] = r.ReplayDeclined
		}
		sr.Stages.add(r.Stages)
		kept = append(kept, *r)
		if r.Recording != nil {
			rr := RecordingReport{Bench: r.Bench, Label: r.Label, Class: r.Class, Compression: *r.Recording}
			if r.Stored != nil {
				rr.Stored = *r.Stored
			}
			sr.Recordings = append(sr.Recordings, rr)
		}
		// Only cells simulated by this sweep belong in the histogram: a
		// recalled cell carries the original run's WhyNot in its FastPath
		// (RAM recall keeps the whole Result) but declined nothing itself,
		// and counting it would double every bucket under -all's
		// overlapping figures.
		if w := r.FastPath.WhyNot; w != nil && r.Kind != FastPathRecalled {
			whyCells[string(w.Reason)] = append(whyCells[string(w.Reason)],
				r.Bench+" "+r.Label+" class"+r.Class)
		}
	}
	sort.SliceStable(kept, func(i, j int) bool {
		return kept[i].HostSeconds > kept[j].HostSeconds
	})
	if len(kept) > topN {
		kept = kept[:topN]
	}
	sr.Slowest = kept
	for reason, cells := range whyCells {
		sort.Strings(cells)
		sr.WhyNot = append(sr.WhyNot, WhyNotCount{Reason: reason, Count: len(cells), Cells: cells})
	}
	sort.Slice(sr.WhyNot, func(i, j int) bool {
		if sr.WhyNot[i].Count != sr.WhyNot[j].Count {
			return sr.WhyNot[i].Count > sr.WhyNot[j].Count
		}
		return sr.WhyNot[i].Reason < sr.WhyNot[j].Reason
	})
	return sr
}
