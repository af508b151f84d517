// Package upmgo is a full reproduction of "Is Data Distribution Necessary
// in OpenMP?" (Nikolopoulos, Papatheodorou, Polychronopoulos, Labarta,
// Ayguadé — SC'2000, Best Paper) as a self-contained Go library.
//
// The paper's question: do OpenMP programs on ccNUMA machines need
// HPF-style data distribution directives, or can transparent, user-level
// dynamic page migration deliver the same locality? Its answer — no
// directives needed — rests on experiments this library regenerates on a
// simulated SGI Origin2000:
//
//   - a ccNUMA machine simulator (a level-tree interconnect, the
//     Origin2000's hypercube by default, caches, TLB, paged memory with
//     per-page per-node reference counters, virtual time, memory-node
//     contention) — package internal/machine and friends;
//   - an OpenMP-like fork/join runtime — internal/omp;
//   - the IRIX-style kernel competitive page migration engine —
//     internal/kmig;
//   - UPMlib, the paper's user-level page migration engine with the
//     iterative data-distribution mechanism and the record–replay
//     redistribution mechanism — internal/upm;
//   - OpenMP NAS benchmark reproductions (BT, SP, CG, MG, FT) —
//     internal/nas/...;
//   - an experiment harness regenerating every table and figure —
//     internal/exp.
//
// This package is the public facade: it re-exports the types and
// functions a downstream user needs to build machines, run OpenMP-style
// kernels on them, attach either migration engine, run the NAS
// reproductions, and regenerate the paper's evaluation. The examples/
// directory shows the API end-to-end.
package upmgo

import (
	"fmt"
	"io"
	"net/http"

	"upmgo/internal/exp"
	"upmgo/internal/kmig"
	"upmgo/internal/machine"
	"upmgo/internal/memsys"
	"upmgo/internal/metrics"
	"upmgo/internal/nas"
	"upmgo/internal/omp"
	"upmgo/internal/store"
	"upmgo/internal/topology"
	"upmgo/internal/trace"
	"upmgo/internal/upm"
	"upmgo/internal/vm"
)

// Machine simulation.
type (
	// Machine is the simulated ccNUMA multiprocessor.
	Machine = machine.Machine
	// MachineConfig configures a Machine.
	MachineConfig = machine.Config
	// CPU is one simulated processor with a virtual clock.
	CPU = machine.CPU
	// Array is a float64 array in simulated memory.
	Array = machine.Array
	// IntArray is an int32 array in simulated memory.
	IntArray = machine.IntArray
	// Array3 and Array4 are dense multi-dimensional views.
	Array3 = machine.Array3
	Array4 = machine.Array4
	// MachineStats aggregates memory-system counters.
	MachineStats = machine.Stats
	// CPUStatsT counts one CPU's memory-system events.
	CPUStatsT = machine.CPUStats
	// Latency is the machine's timing model.
	Latency = memsys.Latency
)

// NewMachine builds a simulated machine.
func NewMachine(cfg MachineConfig) (*Machine, error) { return machine.New(cfg) }

// DefaultMachineConfig returns the paper's 16-processor Origin2000.
func DefaultMachineConfig() MachineConfig { return machine.DefaultConfig() }

// Origin2000Latency returns the paper's Table 1 latency model.
func Origin2000Latency() Latency { return memsys.Origin2000() }

// Page placement policies (the paper's four schemes).
type Policy = vm.Policy

const (
	// FirstTouch places pages with their first toucher (IRIX default;
	// the scheme the NAS codes are tuned for).
	FirstTouch = vm.FirstTouch
	// RoundRobin stripes pages across nodes.
	RoundRobin = vm.RoundRobin
	// Random places pages on seeded-random nodes.
	Random = vm.Random
	// WorstCase places every page on node 0 (buddy-allocator behaviour).
	WorstCase = vm.WorstCase
)

// Policies lists all placement schemes in the paper's order.
var Policies = vm.Policies

// OpenMP-like runtime.
type (
	// Team is a fork/join group of simulated threads.
	Team = omp.Team
	// Thread is the per-member view inside a parallel region.
	Thread = omp.Thread
	// Schedule selects a worksharing loop schedule.
	Schedule = omp.Schedule
	// EventSet provides point-to-point post/wait synchronisation for
	// pipelined (wavefront) parallel regions, as in NAS LU.
	EventSet = omp.EventSet
)

// NewTeam creates a team of n simulated threads on m.
func NewTeam(m *Machine, n int) (*Team, error) { return omp.NewTeam(m, n) }

// StaticSchedule returns OpenMP SCHEDULE(STATIC).
func StaticSchedule() Schedule { return omp.Static() }

// StaticChunkSchedule returns SCHEDULE(STATIC, chunk).
func StaticChunkSchedule(chunk int) Schedule { return omp.StaticChunk(chunk) }

// DynamicSchedule returns SCHEDULE(DYNAMIC, chunk).
func DynamicSchedule(chunk int) Schedule { return omp.Dynamic(chunk) }

// GuidedSchedule returns SCHEDULE(GUIDED).
func GuidedSchedule(minChunk int) Schedule { return omp.Guided(minChunk) }

// Nowait removes a worksharing loop's implicit barrier.
var Nowait = omp.Nowait

// NewEventSet creates post/wait cells (tags per thread) on a team for
// pipelined parallelism.
func NewEventSet(t *Team, tags int) *EventSet { return omp.NewEventSet(t, tags) }

// UPMlib — the paper's user-level page migration engine.
type (
	// UPM is an attached UPMlib instance.
	UPM = upm.UPM
	// UPMOptions tunes the engine (zero values = paper defaults).
	UPMOptions = upm.Options
	// UPMStats reports engine activity.
	UPMStats = upm.Stats
	// ReplicationOptions tunes the read-only page replication extension
	// (UPM.EnableWriteTracking + UPM.ReplicateReadOnly).
	ReplicationOptions = upm.ReplicationOptions
)

// NewUPM attaches a UPMlib engine to m (upmlib_init).
func NewUPM(m *Machine, opt UPMOptions) *UPM { return upm.Init(m, opt) }

// Kernel-level competitive migration engine (the IRIX baseline).
type (
	// KernelMigEngine is the IRIX-style engine.
	KernelMigEngine = kmig.Engine
	// KernelMigConfig tunes it.
	KernelMigConfig = kmig.Config
)

// AttachKernelMigration attaches the kernel engine to m's barriers.
func AttachKernelMigration(m *Machine, cfg KernelMigConfig) *KernelMigEngine {
	return kmig.Attach(m, cfg)
}

// NAS benchmark reproductions.
type (
	// NASConfig selects one benchmark run configuration.
	NASConfig = nas.Config
	// NASResult reports one run.
	NASResult = nas.Result
	// NASClass scales a benchmark (S, W, A).
	NASClass = nas.Class
	// UPMMode selects the UPMlib protocol for a NAS run.
	UPMMode = nas.Mode
	// NASPrefix is a reusable snapshot of one benchmark's
	// engine-independent cold start (machine build, allocation,
	// initialisation, the serial first-touch iteration). Build one with
	// RunNASPrefix, then fork any number of engine variants from it with
	// its RunFromSnapshot method; a fork is bit-identical to RunNAS from
	// scratch at any team width.
	NASPrefix = nas.Prefix
)

// NAS problem classes and UPMlib protocols.
const (
	ClassS = nas.ClassS
	ClassW = nas.ClassW
	ClassA = nas.ClassA

	UPMOff        = nas.UPMOff
	UPMDistribute = nas.UPMDistribute
	UPMRecRep     = nas.UPMRecRep
)

// NASBenchmarks lists the benchmark names in the paper's order.
var NASBenchmarks = exp.BenchOrder

// RunNAS runs one NAS benchmark under the given configuration: the
// paper's five ("BT", "SP", "CG", "MG", "FT") or one of the extension
// codes ("LU", "EP", "IS"), which share the driver but are excluded from
// the figure sweeps.
func RunNAS(name string, cfg NASConfig) (NASResult, error) {
	b, ok := exp.Builder(name)
	if !ok {
		return NASResult{}, fmt.Errorf(`upmgo: %w: %q (want "BT", "SP", "CG", "MG", "FT", or the "LU"/"EP"/"IS" extensions)`, ErrUnknownBenchmark, name)
	}
	return nas.Run(b, cfg)
}

// RunNASPrefix simulates the engine-independent cold-start prefix of cfg
// once and returns it as a reusable snapshot: fork engine variants from
// it with NASPrefix.RunFromSnapshot instead of repeating the cold start
// per variant. Configs with a Tweak or Tracer cannot be snapshotted.
func RunNASPrefix(name string, cfg NASConfig) (*NASPrefix, error) {
	b, ok := exp.Builder(name)
	if !ok {
		return nil, fmt.Errorf(`upmgo: %w: %q (want "BT", "SP", "CG", "MG", "FT", or the "LU"/"EP"/"IS" extensions)`, ErrUnknownBenchmark, name)
	}
	return nas.RunPrefix(b, cfg)
}

// ErrUnknownBenchmark is the sentinel wrapped by RunNAS and the figure
// sweeps when a benchmark name is neither one of the paper's five nor
// an extension; match it with errors.Is.
var ErrUnknownBenchmark = exp.ErrUnknownBenchmark

// Virtual-time tracing. Set NASConfig.Tracer (or SweepRunner.TraceDir)
// to record virtual-time-stamped events from every simulation layer;
// tracing never charges virtual time, so a traced run's numbers are
// bit-identical to the same run untraced.
type (
	// Tracer receives simulation events; TraceRecorder is the standard
	// implementation.
	Tracer = trace.Tracer
	// TraceRecorder buffers events and merges them deterministically by
	// (virtual time, CPU, per-CPU sequence).
	TraceRecorder = trace.Recorder
	// TraceEvent is one recorded event.
	TraceEvent = trace.Event
	// TraceKind identifies an event type.
	TraceKind = trace.Kind
	// TracePageMove is one page migration within an event's page list.
	TracePageMove = trace.PageMove
	// TraceSummary is the structured digest of one run's trace.
	TraceSummary = trace.Summary
)

// NewTraceRecorder returns an empty event recorder.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// WriteChromeTrace renders a merged event stream in the Chrome
// trace_event JSON format (chrome://tracing, Perfetto).
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	return trace.WriteChromeTrace(w, events)
}

// SummarizeTrace digests a merged event stream (Recorder.Events order).
func SummarizeTrace(events []TraceEvent) TraceSummary { return trace.Summarize(events) }

// WriteTraceSummary renders a summary as text: the per-phase virtual-time
// breakdown, engine counters, and the per-iteration table.
func WriteTraceSummary(w io.Writer, s TraceSummary) { trace.WriteSummary(w, s) }

// NUMA locality metrics. Set NASConfig.Metrics (or SweepRunner's
// MetricsDir / MetricsRegistry) to sample, at every iteration mark and
// marked-phase boundary, per-node page residency, local vs remote access
// counts from the hardware reference-counter rows, migrations, TLB
// shootdown rounds, replica collapses and barrier-imbalance picoseconds.
// Sampling never charges virtual time — a sampled run is bit-identical
// in virtual time to the same run unsampled — and sampled configs are
// never memoized by a SweepCache.
type (
	// MetricsSampler collects a MetricsSeries from one NAS run.
	MetricsSampler = metrics.Sampler
	// MetricsOptions configures a sampler (heatmap capture, live
	// registry publication, cell label).
	MetricsOptions = metrics.Options
	// MetricsSeries is a completed sampler's time series, exportable as
	// JSON, CSV or Prometheus text.
	MetricsSeries = metrics.Series
	// MetricsSample is one snapshot within a series.
	MetricsSample = metrics.Sample
	// MetricsHeat is one iteration's hot-page × node reference-counter
	// matrix (rendered by `traceview heatmap` and `pagemap -from`).
	MetricsHeat = metrics.Heat
	// MetricsRegistry is a labelled gauge/counter registry with
	// Prometheus text exposition, backing the live -metrics-addr
	// endpoint of cmd/sweep.
	MetricsRegistry = metrics.Registry
	// MetricsLabels name one series within a registry family.
	MetricsLabels = metrics.Labels
)

// NewMetricsSampler returns an idle sampler; attach it via
// NASConfig.Metrics and read its Series after the run.
func NewMetricsSampler(opt MetricsOptions) *MetricsSampler { return metrics.NewSampler(opt) }

// NewMetricsRegistry returns an empty metric registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// MetricsHandler returns the combined observability endpoint for a
// registry: Prometheus text at /metrics, expvar at /debug/vars and the
// net/http/pprof profiles under /debug/pprof/.
func MetricsHandler(r *MetricsRegistry) http.Handler { return metrics.Handler(r) }

// ReadMetricsSeries parses a series written by MetricsSeries.WriteJSON
// (the .metrics.json files of `sweep -metrics`).
func ReadMetricsSeries(r io.Reader) (MetricsSeries, error) { return metrics.ReadSeries(r) }

// WriteLocalityTable renders Figure 1/4 cells' local:remote main-memory
// access ratios as a Markdown table (benchmark × placement rows, engine
// columns) — the locality-convergence digest behind EXPERIMENTS.md.
func WriteLocalityTable(w io.Writer, cells []ExperimentCell) error {
	return exp.WriteLocalityTable(w, cells)
}

// Experiment harness — the paper's tables and figures.
type (
	// ExperimentCell is one bar of Figure 1/4.
	ExperimentCell = exp.Cell
	// SweepOptions selects the scope of a figure sweep (class, benchmark
	// subset, seed, iteration override, synthetic phase scale).
	SweepOptions = exp.SweepOptions
	// Table2Row is one line of the paper's Table 2.
	Table2Row = exp.Table2Row
	// Figure5Cell is one bar of Figure 5/6 with its overhead split.
	Figure5Cell = exp.Figure5Cell
	// SweepRunner executes figure/table cells concurrently, at most Jobs
	// of them simulating at once, with deterministic (presentation-order)
	// output: construct one, optionally attach a SweepCache and an OnEvent
	// progress callback, and pass SweepRequests to its Sweeps method (or
	// one to Sweep). One call is one batch: its cells replay each
	// benchmark's recorded L2-miss stream, recorded once per batch,
	// instead of simulating the caches again. The zero value runs with
	// GOMAXPROCS slots and no memoization across batches.
	SweepRunner = exp.Runner
	// SweepCache memoizes completed cell results within and across
	// sweeps, so overlapping figures (Figure 1 ⊂ Figure 4; Table 2
	// reuses Figure 4's UPMlib cells) simulate each unique (benchmark,
	// config) cell exactly once.
	SweepCache = exp.Cache
	// SweepCacheStats is a snapshot of a SweepCache's hit/miss counters.
	SweepCacheStats = exp.CacheStats
	// SweepEvent is one per-cell progress notification from a SweepRunner.
	SweepEvent = exp.Event
	// SweepCellSpec names one figure/table cell: a benchmark plus the
	// exact NASConfig of its run.
	SweepCellSpec = exp.CellSpec
)

// NewSweepCache returns an empty cell cache to share across sweeps.
func NewSweepCache() *SweepCache { return exp.NewCache() }

// Unified sweep request surface. Every figure and table is one
// SweepRequest — a SweepKind plus SweepOptions — run by
// SweepRunner.Sweeps (or Sweep), the one way to run a sweep. The
// request's JSON form
// is exactly the body of cmd/sweepd's POST /v1/jobs.
type (
	// SweepKind names one of the paper's five sweeps.
	SweepKind = exp.Kind
	// SweepRequest selects a sweep: which figure/table, and its options.
	SweepRequest = exp.SweepRequest
	// SweepResult carries whichever shape the kind produces (cells,
	// Table 2 rows, or Figure 5/6 bars).
	SweepResult = exp.SweepResult
)

// The paper's sweeps, in presentation order, plus the hierarchical
// topology-scaling sweep (Figure 4's grid on 64/128/256-CPU machines).
const (
	KindFigure1   = exp.KindFigure1
	KindFigure4   = exp.KindFigure4
	KindTable2    = exp.KindTable2
	KindFigure5   = exp.KindFigure5
	KindFigure6   = exp.KindFigure6
	KindTopoScale = exp.KindTopoScale
)

// TopoScaleShapes are the hierarchical machine shapes the toposcale sweep
// runs by default (preset names; see TopologyPresets).
var TopoScaleShapes = exp.TopoScaleShapes

// SweepKinds lists every valid SweepKind in presentation order.
var SweepKinds = exp.Kinds

// ErrUnknownSweepKind is the sentinel wrapped by SweepRunner.Sweep and
// SweepSpecs for a kind outside the paper's five; match it with
// errors.Is (cmd/sweepd maps it to 400 Bad Request).
var ErrUnknownSweepKind = exp.ErrUnknownKind

// ParseSweepKind converts a string ("figure1" … "figure6", "table2") to
// a SweepKind, or ErrUnknownSweepKind.
func ParseSweepKind(s string) (SweepKind, error) { return exp.ParseKind(s) }

// SweepSpecs enumerates the cells a request would run, in presentation
// order, without running them.
func SweepSpecs(req SweepRequest) ([]SweepCellSpec, error) { return exp.SweepSpecs(req) }

// DescribeSweepGauges registers the upmgo_sweep_cells_* metric families
// on a registry; PublishSweepEvent keeps them current from a
// SweepRunner's OnEvent stream. cmd/sweep's -metrics-addr endpoint and
// cmd/sweepd's /metrics share these.
func DescribeSweepGauges(reg *MetricsRegistry) { exp.DescribeSweepGauges(reg) }

// PublishSweepEvent updates the sweep gauges for one progress event.
func PublishSweepEvent(reg *MetricsRegistry, cache *SweepCache, ev SweepEvent) {
	exp.PublishSweepEvent(reg, cache, ev)
}

// Host-side run telemetry. Every surface here is observation-only: a
// run with telemetry armed is bit-identical, in every virtual quantity
// and store record byte, to the same run without it.
type (
	// NASFastPath reports which acceleration fast paths a run engaged,
	// with a typed WhyNot diagnosis when a steady-armed run declined.
	NASFastPath = nas.FastPath
	// NASWhyNot explains why a steady-armed run simulated every
	// iteration (reason enum plus the supporting evidence).
	NASWhyNot = nas.WhyNot
	// NASWhyNotReason enumerates the typed refusal reasons.
	NASWhyNotReason = nas.WhyNotReason
	// NASHostStages splits one run's host wall-clock cost by stage;
	// attach via NASConfig.HostStages.
	NASHostStages = nas.HostStages
	// CellReport is one sweep cell's host-side telemetry record
	// (provenance, fast-path kind, stage attribution), carried on
	// SweepEvent.Report.
	CellReport = exp.CellReport
	// CellStageSeconds is a cell's (or sweep's) host time by stage.
	CellStageSeconds = exp.StageSeconds
	// FastPathKind classifies how a cell's answer was obtained.
	FastPathKind = exp.FastPathKind
	// SweepReport aggregates a sweep's CellReports (`sweep -report`,
	// `traceview report`).
	SweepReport = exp.SweepReport
	// SweepHost is the host context a SweepReport's timings were
	// measured in (SweepReport.Host).
	SweepHost = exp.Host
	// SweepWhyNotCount is one bucket of a SweepReport's why-not histogram.
	SweepWhyNotCount = exp.WhyNotCount
	// StreamCompression says how many timed steps a miss-stream recording
	// simulated before its cache-side state repeated
	// (CellReport.Recording).
	StreamCompression = nas.Compression
	// StreamSize is what a miss-stream recording stores: its varint
	// head, its repeating block and the block's decoded records
	// (CellReport.Stored).
	StreamSize = machine.StreamSize
)

// The typed reasons a steady-armed run declined its fast-forward.
const (
	WhyNotSampler       = nas.WhyNotSampler
	WhyNotDetectionOnly = nas.WhyNotDetectionOnly
	WhyNotNoTail        = nas.WhyNotNoTail
	WhyNotLoopTooShort  = nas.WhyNotLoopTooShort
	WhyNotPerturbed     = nas.WhyNotPerturbed
	WhyNotHomesMoving   = nas.WhyNotHomesMoving
	WhyNotAperiodic     = nas.WhyNotAperiodic
)

// FastPathKind values, cheapest first. FastPathCampaign and
// FastPathSteadyPK are legacy kinds that appear only in reports written
// before the analytic campaign drain, and the detector's longer orbits,
// were removed.
const (
	FastPathRecalled = exp.FastPathRecalled
	FastPathReplayed = exp.FastPathReplayed
	FastPathCampaign = exp.FastPathCampaign
	FastPathSteadyPK = exp.FastPathSteadyPK
	FastPathSteadyP1 = exp.FastPathSteadyP1
	FastPathFullSim  = exp.FastPathFullSim
)

// FastPathKinds lists the kinds in presentation order.
var FastPathKinds = exp.FastPathKinds

// Cell provenance values (CellReport.Source).
const (
	CellSourceMemory    = exp.SourceMemory
	CellSourceStore     = exp.SourceStore
	CellSourceSimulated = exp.SourceSimulated
)

// BuildSweepReport aggregates the CellReports collected from a sweep's
// events into a SweepReport, keeping the topN slowest cells (0 = 5).
func BuildSweepReport(reports []*CellReport, topN int) SweepReport {
	return exp.BuildSweepReport(reports, topN)
}

// SweepHostContext returns this process's host context for a sweep run
// with the given worker count and team size (0 = all CPUs).
func SweepHostContext(jobs, threads int) SweepHost { return exp.HostContext(jobs, threads) }

// PublishBuildInfo sets the upmgo_build_info gauge on reg: constant 1,
// with the Go runtime version and the simulator's code/schema versions
// in the labels. Both cmd/sweep's -metrics-addr endpoint and
// cmd/sweepd's /metrics publish it.
func PublishBuildInfo(reg *MetricsRegistry) {
	metrics.PublishBuildInfo(reg, store.CodeVersion, store.SchemaVersion)
}

// Histogram family names shared by the daemons' /metrics endpoints.
const (
	MetricCellSeconds     = metrics.CellSecondsName
	MetricJobQueueSeconds = metrics.JobQueueSecondsName
	MetricJobRunSeconds   = metrics.JobRunSecondsName
	MetricHTTPSeconds     = metrics.HTTPSecondsName
)

// Content-addressed on-disk result store — the persistent second level
// under a SweepCache (attach with SweepCache.SetStore) and the data
// plane of cmd/sweepd's GET /v1/cells. Records are keyed by the cell's
// memoization key, written atomically (temp file + rename), carry a
// schema/code-version envelope and a payload hash, and decode
// bit-identical across processes.
type (
	// ResultStore is one store handle; any number of handles (and
	// processes) may share a directory.
	ResultStore = store.Store
	// StoreRecord is the on-disk envelope of one cell.
	StoreRecord = store.Record
	// StoreProvenance records which engine/class/code version wrote a
	// record.
	StoreProvenance = store.Provenance
	// StoreMeta is one record's directory listing entry (ResultStore.Scan).
	StoreMeta = store.Meta
	// StoreCheckStats summarises a ResultStore.Check pass.
	StoreCheckStats = store.CheckStats
	// StoreGCStats summarises a ResultStore.GC pass.
	StoreGCStats = store.GCStats
)

// OpenResultStore opens (creating if needed) a store directory.
func OpenResultStore(dir string) (*ResultStore, error) { return store.Open(dir) }

// StoreAddress returns the content address (hex SHA-256 of the
// memoization key) a cell's record lives at — the {address} of
// cmd/sweepd's GET /v1/cells/{address}.
func StoreAddress(key string) string { return store.Address(key) }

// EncodeStoreRecord renders the exact record bytes ResultStore.Put
// would write for a cell. Record encoding is deterministic (no
// timestamps, fixed field order), so these bytes are the byte-identity
// yardstick: what cmd/sweepd serves from /v1/cells must equal what any
// process encodes for the same (key, bench, result).
func EncodeStoreRecord(key, bench string, res NASResult) ([]byte, error) {
	return store.EncodeRecord(key, bench, res)
}

// ErrStoreNotFound reports a key with no intact record (including
// records stale by schema or code version); ErrStoreCorrupt reports a
// record that exists but fails its integrity checks (cmd/sweepd maps it
// to 500). Match both with errors.Is.
var (
	ErrStoreNotFound = store.ErrNotFound
	ErrStoreCorrupt  = store.ErrCorrupt
)

// WriteTable1 renders the paper's Table 1 (hierarchy latencies) to w.
func WriteTable1(w io.Writer) error { return exp.WriteTable1(w) }

// WriteTable1Topo renders the latency ladder of a machine with the given
// shape ("4x2x8", "hier64", "cube:2x2x2"; empty = the paper's default
// Origin2000) to w. cmd/latency's -topo flag is this function.
func WriteTable1Topo(w io.Writer, topo string) error { return exp.WriteTable1Topo(w, topo) }

// Machine topologies. The simulator's interconnect is a
// topology.Hierarchy: a tree of levels (sockets × dies × …) with
// per-level distance and latency contributions. The paper's hypercube is
// the cube of binary unit-hop levels the default machine builds. A
// NASConfig/SweepOptions Topo string selects a shape by ParseTopoShape
// grammar; shapes cube-equivalent to the class default machine
// canonicalise away and share the default machine's fingerprints, cache
// entries and store records bit-identically.
type (
	// TopologyLevel is one tier of a hierarchical machine.
	TopologyLevel = topology.Level
	// TopologyHierarchy is an arbitrary tree of levels with a cached
	// distance matrix.
	TopologyHierarchy = topology.Hierarchy
	// TopologyShape is a parsed machine shape: node levels plus CPUs per
	// node.
	TopologyShape = topology.Shape
)

// TopologyPresets maps mnemonic shape names ("origin", "hier64", …) to
// their shape specs.
var TopologyPresets = topology.Presets

// ParseTopoShape parses a "[cube:]A1xA2x...xAn" shape string or preset
// name: the last component is CPUs per node, the rest are level arities
// outermost first.
func ParseTopoShape(s string) (TopologyShape, error) { return topology.ParseShape(s) }

// NewTopologyHierarchy builds a hierarchical topology from levels,
// outermost first.
func NewTopologyHierarchy(levels []TopologyLevel) (*TopologyHierarchy, error) {
	return topology.NewHierarchy(levels)
}

// WriteCellsCSV renders Figure 1/4 cells as CSV for external plotting.
func WriteCellsCSV(w io.Writer, cells []ExperimentCell) { exp.WriteCellsCSV(w, cells) }
