// Package metrics aggregates the simulator's NUMA locality telemetry
// into virtual-time time series: per-node page residency, local vs
// remote access counts read from the per-page hardware reference
// counters, page migrations, TLB-shootdown rounds, replica collapses and
// barrier-imbalance picoseconds, sampled at every iteration mark and
// marked-phase boundary of a NAS run.
//
// The tracer (package trace) records events; this package aggregates
// them. A Sampler is both: it implements trace.Tracer to tally the event
// stream (shootdowns, engine moves, barrier imbalance) and is called by
// the nas driver at each sampling point to snapshot state no event
// carries — the reference-counter rows as the migration engines would
// see them, read after the iteration's compute but before the engine
// invocation that resets them.
//
// Sampling obeys the tracing invariant: it reads clocks, page-table
// state and counters but never advances a simulated clock or mutates
// simulated state, so a sampled run is bit-identical in virtual time to
// the same run unsampled (internal/nas's TestMetricsOffOnEquivalence
// proves it per benchmark and engine). For the same reason a config with
// a Sampler attached is rejected by nas.Config.Fingerprint: a sampler's
// identity is a pointer, and serving its run from the sweep cache would
// silently return stale metrics.
package metrics

import (
	"sync"

	"upmgo/internal/machine"
	"upmgo/internal/trace"
)

// Options configures a Sampler.
type Options struct {
	// Heatmap captures, at every iteration sample, the full hot-page ×
	// node reference-counter matrix (Series.Heat). Costs rows×nodes
	// uint32 of host memory per iteration; leave off for long runs.
	Heatmap bool
	// Registry, when non-nil, receives the latest sample's values as
	// live labelled gauges after every completed iteration (the cmd/sweep
	// -metrics-addr endpoint serves a registry shared by all cells).
	Registry *Registry
	// Cell labels this run's series in the Registry and in the
	// Prometheus export ("" = unlabelled).
	Cell string
}

// Sample is one snapshot of the run's locality state. Iteration samples
// ("iter") are taken after the step's compute and before the engine
// invocation that may reset the reference counters; phase samples
// ("phase") at the marked phase's exit; the "baseline" sample right
// after the cold start's counter reset, before the first timed step.
//
// The reference-counter fields (NodeRefs, LocalRefs, RemoteRefs) are the
// hardware counter rows as the engines see them — accumulated since
// whatever engine last reset or decayed them — while MachLocal and
// MachRemote are the machine's cumulative main-memory access split
// (L2 misses served by the page's home node vs remotely), monotone over
// the whole run. Migrations and Collapses are cumulative page-table
// counters and Faults the sum of every CPU's page faults; the event
// tallies (Shootdowns, engine moves, Barriers, BarrierImbalancePS) are
// cumulative over the timed loop.
type Sample struct {
	Step   int    `json:"step"`              // 1-based iteration; 0 = baseline
	Kind   string `json:"kind"`              // "baseline", "iter" or "phase"
	TimePS int64  `json:"time_ps"`           // virtual time of the snapshot
	IterPS int64  `json:"iter_ps,omitempty"` // full iteration duration (iter samples)

	Residency    []int64 `json:"residency"`        // pages resident per node
	HotHomes     []int64 `json:"hot_homes"`        // hot pages homed per node
	FrozenPages  int64   `json:"frozen_pages"`     // hot pages frozen by the dampening filter
	ReplicaPages int64   `json:"replicated_pages"` // hot pages with live read replicas

	NodeRefs   []uint64 `json:"node_refs"`   // counter refs per accessing node (hot pages)
	LocalRefs  uint64   `json:"local_refs"`  // refs from the page's current home node
	RemoteRefs uint64   `json:"remote_refs"` // refs from every other node

	MachLocal  uint64 `json:"mach_local"`  // cumulative memory accesses served locally
	MachRemote uint64 `json:"mach_remote"` // cumulative memory accesses served remotely

	Migrations int64 `json:"migrations"` // cumulative successful page moves
	Faults     int64 `json:"faults"`     // cumulative first-touch page faults
	Collapses  int64 `json:"collapses"`  // cumulative replica collapses on write

	Shootdowns  map[string]int64 `json:"shootdowns,omitempty"` // TLB shootdown rounds by payer
	UPMMoves    int64            `json:"upm_moves"`            // pages moved by MigrateMemory
	ReplayMoves int64            `json:"replay_moves"`
	UndoMoves   int64            `json:"undo_moves"`
	KmigScans   int64            `json:"kmig_scans"`
	KmigMoves   int64            `json:"kmig_moves"`

	Barriers           int64 `json:"barriers"`             // barrier releases observed
	BarrierImbalancePS int64 `json:"barrier_imbalance_ps"` // Σ (latest−earliest arrival) per barrier
}

// Heat is one iteration's hot-page × node reference-counter matrix:
// Counts[p*Nodes+n] is page p's counter for accessing node n, pages in
// Series.HotRanges order, read at the iteration's sample point.
type Heat struct {
	Step   int      `json:"step"`
	Pages  int      `json:"pages"`
	Nodes  int      `json:"nodes"`
	Counts []uint32 `json:"counts"`
}

// Series is a completed sampler's time series, self-describing enough
// for the exporters and the heatmap renderers (cmd/traceview heatmap,
// cmd/pagemap -from). Treat a returned Series as read-only: samples
// share backing arrays with the sampler.
type Series struct {
	Cell      string      `json:"cell,omitempty"`
	Nodes     int         `json:"nodes"`
	PageBytes int         `json:"page_bytes"`
	HotRanges [][2]uint64 `json:"hot_ranges"` // [lo, hi) vpn spans of the hot arrays
	HotPages  int         `json:"hot_pages"`
	Samples   []Sample    `json:"samples"`
	Heat      []Heat      `json:"heat,omitempty"`
}

// Locality returns the run's cumulative local vs remote split of
// main-memory accesses, from the machine counters of the last sample.
// Unlike the per-sample reference-counter rows (which engines reset),
// these are monotone over the whole run, so the ratio is exact.
func (s Series) Locality() (local, remote uint64) {
	if n := len(s.Samples); n > 0 {
		last := s.Samples[n-1]
		return last.MachLocal, last.MachRemote
	}
	return 0, 0
}

// Sampler collects a Series from one run. Attach it via nas.Config:
// the driver installs it in the machine's tracer chain (so it tallies
// the event stream) and calls Start and SampleIteration at the sampling
// points. All methods are safe for concurrent use; Emit in particular
// is called from every team thread's goroutine.
type Sampler struct {
	opt Options

	mu  sync.Mutex
	m   *machine.Machine
	hot [][2]uint64

	samples []Sample
	heat    []Heat

	// Event tallies, cumulative over the timed loop (Start resets them
	// so the untimed cold start is excluded).
	shootdowns  map[string]int64
	upmMoves    int64
	replayMoves int64
	undoMoves   int64
	kmigScans   int64
	kmigMoves   int64
	barriers    int64
	imbalancePS int64

	// Current-barrier arrival spread; arrivals of one barrier all
	// precede its release, so a running min/max suffices.
	bMin, bMax int64
	bArrivals  int

	curStep    int   // current iteration (from EvIterStart)
	phaseStart int64 // current marked phase's entry clock

	row []uint32 // scratch counter row
}

// NewSampler returns an idle sampler; the nas driver arms it.
func NewSampler(opt Options) *Sampler {
	return &Sampler{opt: opt, shootdowns: map[string]int64{}}
}

// Start arms the sampler at the head of the timed loop: it binds the
// machine and hot ranges, discards event tallies accumulated during the
// untimed cold start, and records the baseline sample (step 0) — the
// post-reset state every engine starts from. now is the master clock.
func (s *Sampler) Start(m *machine.Machine, hot [][2]uint64, now int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m = m
	s.hot = hot
	if s.opt.Registry != nil {
		describe(s.opt.Registry)
	}
	s.shootdowns = map[string]int64{}
	s.upmMoves, s.replayMoves, s.undoMoves = 0, 0, 0
	s.kmigScans, s.kmigMoves = 0, 0
	s.barriers, s.imbalancePS, s.bArrivals = 0, 0, 0
	s.samples = append(s.samples, s.snapshot(0, "baseline", now))
}

// SampleIteration records step's iteration sample. The driver calls it
// after the step's compute and before the engine invocation, so the
// reference-counter rows are read before MigrateMemory resets them.
// The sample's IterPS is filled in when the iteration's EvIterEnd
// arrives (the engine work between here and there is part of the
// iteration).
func (s *Sampler) SampleIteration(step int, now int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		return
	}
	s.samples = append(s.samples, s.snapshot(step, "iter", now))
	if s.opt.Heatmap {
		s.heat = append(s.heat, s.heatmap(step))
	}
}

// Emit implements trace.Tracer: it tallies the event stream. Like all
// tracers it must never advance a simulated clock; it only aggregates.
func (s *Sampler) Emit(ev trace.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Kind {
	case trace.EvBarrierArrive:
		if s.bArrivals == 0 || ev.Time < s.bMin {
			s.bMin = ev.Time
		}
		if s.bArrivals == 0 || ev.Time > s.bMax {
			s.bMax = ev.Time
		}
		s.bArrivals++
	case trace.EvBarrierRelease:
		s.barriers++
		if s.bArrivals > 0 {
			s.imbalancePS += s.bMax - s.bMin
			s.bArrivals = 0
		}
	case trace.EvShootdown:
		s.shootdowns[ev.Name] += ev.Arg0
	case trace.EvUPMMigrate:
		s.upmMoves += ev.Arg0
	case trace.EvUPMReplay:
		s.replayMoves += ev.Arg0
	case trace.EvUPMUndo:
		s.undoMoves += ev.Arg0
	case trace.EvKmigScan:
		s.kmigScans++
		s.kmigMoves += ev.Arg0
	case trace.EvIterStart:
		s.curStep = int(ev.Arg0)
	case trace.EvIterEnd:
		// Close the pending iteration sample with the full duration
		// (the engine invocation after the sample point is part of it).
		for i := len(s.samples) - 1; i >= 0; i-- {
			if s.samples[i].Kind == "iter" {
				if s.samples[i].Step == int(ev.Arg0) {
					s.samples[i].IterPS = ev.Arg1
				}
				break
			}
		}
		s.curStep = 0
		s.publishLocked()
	case trace.EvPhaseEnter:
		s.phaseStart = ev.Time
	case trace.EvPhaseExit:
		// The marked phase exits in the master's serial section — a
		// quiescent point, so counter rows are stable to read.
		if s.m != nil {
			s.samples = append(s.samples, s.snapshot(s.curStep, "phase", ev.Time))
		}
	}
}

// snapshot reads the current locality state; the caller holds s.mu and
// the simulation is at a quiescent point (serial section of the driver
// or the master between regions).
func (s *Sampler) snapshot(step int, kind string, now int64) Sample {
	pt := s.m.PT
	nodes := pt.Nodes()
	st := s.m.Stats()
	sm := Sample{
		Step:       step,
		Kind:       kind,
		TimePS:     now,
		Residency:  pt.Used(),
		HotHomes:   make([]int64, nodes),
		NodeRefs:   make([]uint64, nodes),
		Migrations: pt.Migrations(),
		Faults:     int64(st.Faults),
		Collapses:  pt.Collapses(),

		UPMMoves:           s.upmMoves,
		ReplayMoves:        s.replayMoves,
		UndoMoves:          s.undoMoves,
		KmigScans:          s.kmigScans,
		KmigMoves:          s.kmigMoves,
		Barriers:           s.barriers,
		BarrierImbalancePS: s.imbalancePS,
	}
	if len(s.shootdowns) > 0 {
		sm.Shootdowns = make(map[string]int64, len(s.shootdowns))
		for k, v := range s.shootdowns {
			sm.Shootdowns[k] = v
		}
	}
	if cap(s.row) < nodes {
		s.row = make([]uint32, nodes)
	}
	for _, r := range s.hot {
		for vpn := r[0]; vpn < r[1]; vpn++ {
			home := pt.Home(vpn)
			if home >= 0 {
				sm.HotHomes[home]++
			}
			if pt.Frozen(vpn) {
				sm.FrozenPages++
			}
			if pt.HasReplicas(vpn) {
				sm.ReplicaPages++
			}
			row := pt.Counters(vpn, s.row[:nodes])
			for n, c := range row {
				sm.NodeRefs[n] += uint64(c)
				if n == home {
					sm.LocalRefs += uint64(c)
				} else {
					sm.RemoteRefs += uint64(c)
				}
			}
		}
	}
	sm.MachLocal, sm.MachRemote = st.LocalMem, st.RemoteMem
	return sm
}

// heatmap captures the hot-page × node counter matrix; caller holds s.mu.
func (s *Sampler) heatmap(step int) Heat {
	pt := s.m.PT
	nodes := pt.Nodes()
	pages := 0
	for _, r := range s.hot {
		pages += int(r[1] - r[0])
	}
	h := Heat{Step: step, Pages: pages, Nodes: nodes, Counts: make([]uint32, pages*nodes)}
	i := 0
	for _, r := range s.hot {
		for vpn := r[0]; vpn < r[1]; vpn++ {
			copy(h.Counts[i:i+nodes], pt.Counters(vpn, s.row[:nodes]))
			i += nodes
		}
	}
	return h
}

// publishLocked pushes the latest sample to the registry as labelled
// gauges; caller holds s.mu.
func (s *Sampler) publishLocked() {
	if s.opt.Registry == nil || len(s.samples) == 0 {
		return
	}
	publish(s.opt.Registry, s.opt.Cell, s.samples[len(s.samples)-1])
}

// Series returns the collected time series. Call it after the run; the
// result shares backing arrays with the sampler and must be treated as
// read-only.
func (s *Sampler) Series() Series {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Series{
		Cell:    s.opt.Cell,
		Samples: append([]Sample(nil), s.samples...),
		Heat:    append([]Heat(nil), s.heat...),
	}
	if s.m != nil {
		out.Nodes = s.m.PT.Nodes()
		out.PageBytes = s.m.PageBytes()
		out.HotRanges = append([][2]uint64(nil), s.hot...)
		for _, r := range s.hot {
			out.HotPages += int(r[1] - r[0])
		}
	}
	return out
}
