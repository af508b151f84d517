// Package nas provides the shared driver for the OpenMP NAS benchmark
// reproductions (BT, SP, CG, MG, FT): problem classes, the experiment
// configuration (placement scheme, kernel migration, UPMlib mode), the
// cold-start first-touch protocol, the UPMlib invocation protocols of the
// paper's Figures 2 and 3, per-iteration timing, and verification.
package nas

import (
	"fmt"
	"math"
	"strings"

	"upmgo/internal/kmig"
	"upmgo/internal/machine"
	"upmgo/internal/metrics"
	"upmgo/internal/omp"
	"upmgo/internal/topology"
	"upmgo/internal/trace"
	"upmgo/internal/upm"
	"upmgo/internal/vm"
)

// Class scales a benchmark. The paper runs NAS Class A on real hardware;
// the simulator pays host time per simulated access, so the default
// experiment class (W) scales the grids down and scales the simulated
// cache sizes with them, preserving the ratio of working set to cache
// that makes placement matter. EXPERIMENTS.md records the exact sizes.
type Class int

const (
	// ClassS is tiny: unit tests.
	ClassS Class = iota
	// ClassW is the default experiment scale.
	ClassW
	// ClassA approaches the paper's problem sizes (expensive; use from
	// cmd/nasbench explicitly).
	ClassA
)

// String returns "S", "W" or "A".
func (c Class) String() string { return [...]string{"S", "W", "A"}[c] }

// MarshalText encodes the class as its letter, so JSON sweep requests and
// store records carry "W" rather than a bare enum integer.
func (c Class) MarshalText() ([]byte, error) {
	if c < ClassS || c > ClassA {
		return nil, fmt.Errorf("nas: cannot encode Class(%d)", int(c))
	}
	return []byte(c.String()), nil
}

// UnmarshalText decodes a class letter (case-insensitive).
func (c *Class) UnmarshalText(text []byte) error {
	cl, err := ParseClass(string(text))
	if err != nil {
		return err
	}
	*c = cl
	return nil
}

// ParseClass maps a class letter ("S", "W", "A", either case) to its
// Class, the inverse of String.
func ParseClass(s string) (Class, error) {
	for _, c := range []Class{ClassS, ClassW, ClassA} {
		if strings.EqualFold(s, c.String()) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("nas: unknown class %q (want S, W or A)", s)
}

// MachineTweak scales the simulated machine with the class: cache sizes
// shrink so the per-thread working set exceeds L2 the way NAS Class A
// exceeds the Origin2000's 4 MB L2, page sizes shrink so a page does not
// span several threads' partitions, and the tiny test class runs on a
// 4-node machine so that every thread of the scaled-down grids has work
// (idle nodes would distort the contention comparison between placements).
func (c Class) MachineTweak(mc *machine.Config) {
	switch c {
	case ClassS:
		mc.Nodes, mc.CPUsPerNode = 4, 2
		mc.PageBytes = 1024
		mc.L1Bytes, mc.L1Line, mc.L1Ways = 4*1024, 32, 2
		mc.L2Bytes, mc.L2Line, mc.L2Ways = 16*1024, 128, 2
	case ClassW:
		mc.PageBytes = 2 * 1024
		mc.L1Bytes, mc.L1Line, mc.L1Ways = 8*1024, 32, 2
		mc.L2Bytes, mc.L2Line, mc.L2Ways = 64*1024, 128, 2
	case ClassA:
		// The real machine.
	}
}

// Mode selects the UPMlib protocol.
type Mode int

const (
	// UPMOff runs without the user-level engine.
	UPMOff Mode = iota
	// UPMDistribute uses iterative page migration as implicit data
	// distribution (the paper's Figure 2 protocol).
	UPMDistribute
	// UPMRecRep adds record–replay redistribution around the kernel's
	// phase change (the paper's Figure 3 protocol; BT and SP only).
	UPMRecRep
)

// String returns a short label.
func (m Mode) String() string { return [...]string{"off", "upmlib", "recrep"}[m] }

// MarshalText encodes the mode as its short label.
func (m Mode) MarshalText() ([]byte, error) {
	if m < UPMOff || m > UPMRecRep {
		return nil, fmt.Errorf("nas: cannot encode Mode(%d)", int(m))
	}
	return []byte(m.String()), nil
}

// UnmarshalText decodes a short label produced by MarshalText.
func (m *Mode) UnmarshalText(text []byte) error {
	for _, q := range []Mode{UPMOff, UPMDistribute, UPMRecRep} {
		if string(text) == q.String() {
			*m = q
			return nil
		}
	}
	return fmt.Errorf("nas: unknown UPM mode %q (want off, upmlib or recrep)", text)
}

// Hooks are the serial-section calls a kernel makes around its
// phase-change phase (z_solve in BT/SP). The driver fills them per step to
// implement the record–replay protocol; kernels without a phase ignore
// them.
type Hooks struct {
	// BeforePhase runs on the master immediately before the phase's
	// parallel region; AfterPhase immediately after its join.
	BeforePhase func(c *machine.CPU)
	AfterPhase  func(c *machine.CPU)
	// phaseStart is used by the driver to time the phase.
	phaseStart int64
	phasePS    int64
}

// PhaseEnter must be called by the kernel right before the marked phase's
// parallel region (after BeforePhase side effects are charged).
func (h *Hooks) PhaseEnter(c *machine.CPU) {
	if rec := c.Machine().Recorder(); rec != nil {
		rec.Mark(machine.OpPhaseEnter, c)
	}
	if h == nil {
		return
	}
	if h.BeforePhase != nil {
		h.BeforePhase(c)
	}
	h.phaseStart = c.Now()
	if trc := c.Machine().Tracer(); trc != nil {
		trc.Emit(trace.Event{Time: h.phaseStart, CPU: c.ID, Kind: trace.EvPhaseEnter})
	}
}

// PhaseExit must be called right after the marked phase's join.
func (h *Hooks) PhaseExit(c *machine.CPU) {
	if rec := c.Machine().Recorder(); rec != nil {
		rec.Mark(machine.OpPhaseExit, c)
	}
	if h == nil {
		return
	}
	h.phasePS += c.Now() - h.phaseStart
	if trc := c.Machine().Tracer(); trc != nil {
		trc.Emit(trace.Event{Time: c.Now(), CPU: c.ID, Kind: trace.EvPhaseExit})
	}
	if h.AfterPhase != nil {
		h.AfterPhase(c)
	}
}

// Kernel is one NAS benchmark bound to a machine.
type Kernel interface {
	// Name returns the benchmark's short name ("BT", ...).
	Name() string
	// DefaultIterations returns the class's main-loop step count.
	DefaultIterations() int
	// InitTouch writes the initial data through simulated accesses with
	// the same loop partitioning as the compute phases. NAS codes
	// parallelise their initialisation routines exactly so that
	// first-touch places each page on its dominant accessor; without
	// this, stencil reads of neighbour planes during the first parallel
	// region would shift every page's home by one node.
	InitTouch(t *omp.Team)
	// Step executes one timestep as a sequence of parallel regions on
	// the team, invoking hooks around the marked phase if any. Its
	// simulated accesses and charges may depend on the step only through
	// machine state: started from equal cache-side state, two Steps issue
	// the same accesses and charges, whatever the step index or the
	// kernel's data. A compressed recording relies on it (DESIGN.md §17);
	// a kernel that breaks it implements Varying.
	Step(t *omp.Team, h *Hooks)
	// Reinit restores the initial data (used to discard the cold-start
	// iteration's results) without touching simulated memory.
	Reinit()
	// Verify checks the numerical outcome after the main loop.
	Verify() error
	// HotPages returns the page spans of the compiler-identified hot
	// arrays (shared arrays both read and written across parallel
	// constructs).
	HotPages() [][2]uint64
	// HasPhase reports whether the kernel has a phase change usable by
	// record–replay.
	HasPhase() bool
}

// SinAxis returns sin(π·k·h) for k < n, h = 1/(n-1): one axis's factor
// of the manufactured solution sin(πx)·sin(πy)·sin(πz) of BT, SP and LU.
// Multiplying the entries for k, j and i in that order gives, bit for
// bit, the product of the three math.Sin calls.
func SinAxis(n int) []float64 {
	h := 1.0 / float64(n-1)
	s := make([]float64, n)
	for k := range s {
		s[k] = math.Sin(math.Pi * float64(k) * h)
	}
	return s
}

// Varying marks a kernel whose Steps break the Kernel contract: their
// simulated accesses or charges follow the kernel's data or its step
// count (EP's accepted pairs, IS's key perturbation). Its recordings
// simulate every step.
type Varying interface {
	// VariesByStep is a marker; it is never called.
	VariesByStep()
}

// Builder constructs a kernel on a machine at a class and compute scale.
type Builder func(m *machine.Machine, class Class, scale int, seed uint64) Kernel

// Config selects one experiment cell. Its JSON tags give a config a
// readable encoding (enums as their figure labels: Class "W", Placement
// "ft", UPM "upmlib"; the observation hooks Tweak, Tracer, Metrics and
// HostStages excluded), but no wire form carries one: a sweep request
// (cmd/sweepd's POST /v1/jobs) is an exp.SweepRequest, and a store
// record's payload is a Result, keyed by the config's Fingerprint.
type Config struct {
	Class      Class       `json:"class"`
	Placement  vm.Policy   `json:"placement"`
	KernelMig  bool        `json:"kernel_mig,omitempty"` // IRIX-style kernel engine on
	UPM        Mode        `json:"upm,omitempty"`        // user-level engine protocol
	UPMOptions upm.Options `json:"upm_options"`          // zero = paper defaults
	Kmig       kmig.Config `json:"kmig"`                 // zero = defaults
	Threads    int         `json:"threads,omitempty"`    // 0 = all CPUs
	Iterations int         `json:"iterations,omitempty"` // 0 = class default
	// ComputeScale repeats each phase's body (the paper's synthetic
	// scaling in Figure 6). 0 or 1 = normal.
	ComputeScale int `json:"compute_scale,omitempty"`
	// PerturbAt models OS scheduler interference (the multiprogramming
	// case the paper defers to its companion work): after iteration
	// PerturbAt the thread-to-CPU binding rotates by one node, stranding
	// every thread's pages on its old node. UPMlib, if enabled, is
	// reactivated to repair the damage. 0 = never.
	PerturbAt int    `json:"perturb_at,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	// Tweak adjusts the machine configuration after class defaults
	// (ablation benches use it).
	Tweak func(mc *machine.Config) `json:"-"`
	// Tracer, when non-nil, receives virtual-time-stamped events from
	// every simulation layer (regions, barriers, iterations, faults,
	// engine actions). Tracing never charges virtual time, so a traced
	// run's numbers are bit-identical to the same config untraced.
	Tracer trace.Tracer `json:"-"`
	// Metrics, when non-nil, samples the run's NUMA locality state at
	// every iteration mark and marked-phase boundary: per-node page
	// residency, the reference-counter rows (read before the engine
	// invocation that resets them), migrations, shootdown rounds,
	// replica collapses and barrier imbalance. Like Tracer it is
	// observation-only — a sampled run is bit-identical in virtual time
	// to an unsampled one — and like Tracer it makes the config
	// unfingerprintable, so the sweep cache never serves stale metrics.
	Metrics *metrics.Sampler `json:"-"`
	// SkipVerify skips the numerical check (benchmarks that time very
	// few iterations on purpose may not converge).
	SkipVerify bool `json:"skip_verify,omitempty"`
	// SteadyState arms the steady-state detector: at the end of every
	// timed iteration (past PerturbAt, if set) it snapshots the machine
	// and engine counters, and when SteadyWindow consecutive iterations
	// produce identical deltas with a stationary page-home map it records
	// the iteration in Result.SteadyAt. Detection is observation-only
	// unless Extrapolate is also set. Ignored when Metrics is attached:
	// the sampler needs every iteration simulated.
	SteadyState bool `json:"steady_state,omitempty"`
	// Extrapolate, with SteadyState, fast-forwards the run at detection:
	// the remaining iterations' virtual time and counters are added
	// analytically (remaining × the proven per-iteration delta) and the
	// kernel re-executes the remaining steps in free-run mode so the
	// numerics still reach their exact final state for Verify. Every
	// virtual-time quantity of the Result is bit-identical to the fully
	// simulated run (steady_test.go proves it per benchmark and engine).
	Extrapolate bool `json:"extrapolate,omitempty"`
	// SteadyWindow is the number of consecutive identical deltas that
	// proves steadiness. 0 means the default (3).
	SteadyWindow int `json:"steady_window,omitempty"`
	// HostStages, when non-nil, receives the run's host-side record: its
	// host wall-clock cost split by stage (prefix, fork, timed loop,
	// extrapolation, free-run tail, verification) and the steady-state
	// WhyNot. Pure observation: nothing simulated reads it, no virtual
	// time is charged, and without a sink no clock is read, so armed and
	// unarmed runs are bit-identical in every virtual quantity. It never
	// partitions the fingerprint space — it is simply absent from the
	// fingerprint encoding.
	HostStages *HostStages `json:"-"`
	// Topo selects the machine's shape: a topology.ParseShape string or
	// preset ("4x2x8", "hier64", "cube:2x2x2"). It overrides the class
	// default machine's node/CPU counts and, for shapes with per-level
	// latency, its memory ladder. Empty keeps the class default. Shapes
	// that are cube-equivalent to the class default canonicalise to
	// empty in Fingerprint/Label — they build the same cube hierarchy
	// as the class default, so their runs are bit-identical to it and
	// share its cache entries and store records (the compatibility
	// guarantee topology_test.go pins).
	Topo string `json:"topo,omitempty"`
}

// Fingerprint returns a canonical text encoding of the configuration,
// suitable as a memoization key: two configs with equal fingerprints
// drive bit-identical simulations, because Run is deterministic in the
// config alone. Zero values that Run itself normalises are canonicalised
// (ComputeScale 0 and 1 deliberately collide). Iterations 0 means "class
// default" and is kept distinct from an explicit equal count — that is
// conservative (two cache entries) but never wrong. The second result is
// false when the config cannot be canonically encoded (a Tweak function,
// a Tracer or a Metrics sampler is set — a tracer's or sampler's
// identity is a pointer, and serving such a run from a cache would
// silently drop its events or return stale metrics) and therefore must
// not be memoized.
func (c Config) Fingerprint() (string, bool) {
	if c.Tweak != nil || c.Tracer != nil || c.Metrics != nil {
		return "", false
	}
	if c.ComputeScale < 1 {
		c.ComputeScale = 1
	}
	// Steady-state knobs are canonicalised the way runMain reads them:
	// without SteadyState the other two fields are dead, and window 0 is
	// the default. (SteadyState stays in the key even though extrapolated
	// results are bit-identical to simulated ones — Result.SteadyAt and
	// ExtrapolatedIters do differ.)
	if !c.SteadyState {
		c.Extrapolate = false
		c.SteadyWindow = 0
	} else if c.SteadyWindow <= 0 {
		c.SteadyWindow = steadyWindowDefault
	}
	fp := fmt.Sprintf("%+v", fingerprintView{
		Class:        c.Class,
		Placement:    c.Placement,
		KernelMig:    c.KernelMig,
		UPM:          c.UPM,
		UPMOptions:   c.UPMOptions,
		Kmig:         c.Kmig,
		Threads:      c.Threads,
		Iterations:   c.Iterations,
		ComputeScale: c.ComputeScale,
		PerturbAt:    c.PerturbAt,
		Seed:         c.Seed,
		SkipVerify:   c.SkipVerify,
		SteadyState:  c.SteadyState,
		Extrapolate:  c.Extrapolate,
		SteadyWindow: c.SteadyWindow,
	})
	if t := c.canonTopo(); t != "" {
		fp += " topo=" + t
	}
	return fp, true
}

// fingerprintView is the fingerprint encoding of a Config: exactly the
// pre-topology field list, in the original order, so that fmt's %+v of a
// view is byte-for-byte the fingerprint every cache entry and store
// record was keyed by before Topo existed. The topology joins the key
// only as an explicit suffix, and only when canonTopo is non-empty —
// which is the fingerprint compatibility guarantee: default-shape runs
// keep their historical keys. The hook fields (Tweak, Tracer, Metrics)
// are retained as always-nil placeholders because their "<nil>"
// renderings are part of the historical byte layout; so is TailCache,
// whose Config field (a shared verification cache) is gone. Do not
// reorder, rename or extend this struct; fingerprint_test.go pins its
// rendering against golden strings.
type fingerprintView struct {
	Class        Class
	Placement    vm.Policy
	KernelMig    bool
	UPM          Mode
	UPMOptions   upm.Options
	Kmig         kmig.Config
	Threads      int
	Iterations   int
	ComputeScale int
	PerturbAt    int
	Seed         uint64
	Tweak        func(mc *machine.Config)
	Tracer       trace.Tracer
	Metrics      *metrics.Sampler
	SkipVerify   bool
	SteadyState  bool
	Extrapolate  bool
	SteadyWindow int
	TailCache    *struct{}
}

// canonTopo returns the canonical topology component of the config's
// identity: empty when Topo is unset or names a shape indistinguishable
// from the class's default machine (cube levels of arity 2, matching
// node and CPU counts — the hierarchy the default machine builds, so
// such runs are bit-identical to it), else the canonical shape spelling,
// so "HIER64" and "4x2x8" collide. Unparseable strings are returned
// verbatim: Run will reject them, and two configs that fail identically
// may share the key.
func (c Config) canonTopo() string {
	if c.Topo == "" {
		return ""
	}
	sh, err := topology.ParseShape(c.Topo)
	if err != nil {
		return c.Topo
	}
	mc := machine.DefaultConfig()
	c.Class.MachineTweak(&mc)
	if sh.CubeEquivalent(mc.Nodes, mc.CPUsPerNode) {
		return ""
	}
	return sh.String()
}

// PrefixFingerprint returns a canonical key for the engine-independent
// prefix of a run — Fingerprint minus every field the prefix does not
// read. Two configs with equal prefix fingerprints drive bit-identical
// cold starts, so their runs can fork from one shared machine snapshot
// (RunPrefix / Prefix.RunFromSnapshot). The field list mirrors exactly
// what runPrefix consumes: Class, Placement, Seed, ComputeScale
// (canonicalised, 0≡1), Threads and the canonical topology (appended only
// when non-default, preserving historical keys); the engine and timed-loop fields
// (KernelMig, UPM, UPMOptions, Kmig, Iterations, PerturbAt, SkipVerify)
// act only after the divergence point and are deliberately absent. The
// second result is false when the prefix cannot be canonically encoded,
// for the same reasons as Fingerprint: a Tweak function has no canonical
// encoding, forking a traced prefix would replay its cold-start events
// into the wrong stream, and a sampled prefix would feed one sampler
// from many forks.
func (c Config) PrefixFingerprint() (string, bool) {
	if c.Tweak != nil || c.Tracer != nil || c.Metrics != nil {
		return "", false
	}
	scale := c.ComputeScale
	if scale < 1 {
		scale = 1
	}
	fp := fmt.Sprintf("prefix\x00class=%v placement=%v seed=%d scale=%d threads=%d",
		c.Class, c.Placement, c.Seed, scale, c.Threads)
	if t := c.canonTopo(); t != "" {
		fp += " topo=" + t
	}
	return fp, true
}

// tracer returns the effective event sink: the user's Tracer, the
// Metrics sampler (which aggregates the same stream), or a tee of both.
// Built here rather than with trace.Tee directly so a nil *Sampler never
// becomes a non-nil Tracer interface.
func (c Config) tracer() trace.Tracer {
	switch {
	case c.Metrics != nil && c.Tracer != nil:
		return trace.Tee(c.Tracer, c.Metrics)
	case c.Metrics != nil:
		return c.Metrics
	default:
		return c.Tracer
	}
}

// Label renders the paper's bar labels, e.g. "rr-IRIXmig" or "ft-upmlib".
// A non-default topology joins as an "@shape" suffix ("ft-upmlib@4x2x8");
// shapes canonTopo folds into the default keep the bare label.
func (c Config) Label() string {
	var l string
	switch {
	case c.UPM == UPMRecRep:
		l = c.Placement.String() + "-recrep"
	case c.UPM == UPMDistribute:
		l = c.Placement.String() + "-upmlib"
	case c.KernelMig:
		l = c.Placement.String() + "-IRIXmig"
	default:
		l = c.Placement.String() + "-IRIX"
	}
	if t := c.canonTopo(); t != "" {
		l += "@" + t
	}
	return l
}

// Result reports one run's simulated quantities; what the run cost the
// host goes to Config.HostStages. The JSON tags define the store-record
// and job-API payload form; every timing field is an integer picosecond
// count, so the JSON round-trip is exact and a decoded Result is
// bit-identical to the one encoded (the invariant internal/store's tests
// pin). VerifyErr is excluded: only verified results are ever persisted
// or served, and an error value has no canonical encoding.
type Result struct {
	Kernel string `json:"kernel"`
	Label  string `json:"label"`
	Class  Class  `json:"class"`

	TotalPS int64   `json:"total_ps"`           // virtual time of the main loop
	ColdPS  int64   `json:"cold_ps"`            // virtual time of the cold-start iteration
	IterPS  []int64 `json:"iter_ps"`            // per-iteration virtual times
	PhasePS []int64 `json:"phase_ps,omitempty"` // per-iteration marked-phase durations (BT/SP)

	UPM        upm.Stats     `json:"upm"`
	KmigMoves  int64         `json:"kmig_moves,omitempty"`
	KmigCost   int64         `json:"kmig_cost,omitempty"`
	Mach       machine.Stats `json:"mach"`
	PagesTotal int           `json:"pages_total,omitempty"` // hot pages monitored

	Verified  bool  `json:"verified"`
	VerifyErr error `json:"-"`

	// SteadyAt is the iteration at whose end the steady-state detector
	// (Config.SteadyState) proved the per-iteration delta repeats; 0 when
	// detection was off or never fired. ExtrapolatedIters is how many of
	// the trailing iterations were extrapolated instead of simulated
	// (Config.Extrapolate); their IterPS/PhasePS entries are the proven
	// per-iteration deltas, so the sum contracts over IterPS and TotalPS
	// hold exactly as in a fully simulated run.
	SteadyAt          int `json:"steady_at,omitempty"`
	ExtrapolatedIters int `json:"extrapolated_iters,omitempty"`
	// CampaignIters is a legacy field that Run never sets; the benchmark
	// harness still reads it.
	CampaignIters int `json:"campaign_iters,omitempty"`
}

// Seconds returns the main-loop virtual time in seconds.
func (r Result) Seconds() float64 { return float64(r.TotalPS) / 1e12 }

// String summarises the run.
func (r Result) String() string {
	return fmt.Sprintf("%s.%s %-12s %8.4fs  iters=%d  remote=%.1f%%  upmMig=%d  kmig=%d",
		r.Kernel, r.Class, r.Label, r.Seconds(), len(r.IterPS),
		100*r.Mach.RemoteRatio(), r.UPM.Migrations+r.UPM.ReplayMigrations, r.KmigMoves)
}

// Run executes one benchmark under one configuration and returns its
// result. The protocol follows the paper:
//
//  1. allocate and initialise, 2. run one cold-start iteration (serial
//     mode, results discarded) so first-touch placement happens exactly as
//     in the tuned NAS codes, 3. reset counters, 4. run the timed main
//     loop with the configured migration engines, 5. verify.
//
// Steps 1–3 are engine-independent by construction (runPrefix reads no
// engine field of the config); RunPrefix/RunFromSnapshot exploit that to
// simulate them once per (class, placement, threads, seed, scale) tuple
// and fork machine clones for the engine variants.
func Run(build Builder, cfg Config) (Result, error) {
	if cfg.Iterations < 0 {
		return Result{}, fmt.Errorf("nas: negative iterations %d", cfg.Iterations)
	}
	cfg.HostStages.lap(stagePrefix)
	defer cfg.HostStages.lap(stageNone)
	m, k, team, err := runPrefix(build, cfg)
	if err != nil {
		return Result{}, err
	}
	return runMain(m, k, team, cfg)
}

// runPrefix performs the engine-independent prefix of a run: machine
// build, kernel build, the serial cold-start first-touch iteration, data
// reinitialisation and the counter reset. It reads only Class, Placement,
// Seed, ComputeScale, Threads, Topo, Tweak and Tracer from the config — never
// an engine or timed-loop field — which is what makes the state it
// produces shareable across engine variants (PrefixFingerprint keys
// exactly this field set).
func runPrefix(build Builder, cfg Config) (*machine.Machine, Kernel, *omp.Team, error) {
	mc := machine.DefaultConfig()
	cfg.Class.MachineTweak(&mc)
	if cfg.Topo != "" {
		// The shape overrides the class machine's node/CPU geometry (and,
		// for shapes with per-level latency, its ladder) but keeps its
		// page and cache geometry. Applied before Tweak so ablations can
		// still adjust a shaped machine.
		if err := mc.SetTopology(cfg.Topo); err != nil {
			return nil, nil, nil, err
		}
	}
	mc.Placement = cfg.Placement
	mc.Seed = cfg.Seed
	if cfg.Tweak != nil {
		cfg.Tweak(&mc)
	}
	m, err := machine.New(mc)
	if err != nil {
		return nil, nil, nil, err
	}
	// Attach before the cold start so first-touch faults are in the trace.
	// The effective tracer tees the user's Tracer with the Metrics
	// sampler, so both observe every machine- and engine-level emission.
	m.SetTracer(cfg.tracer())
	scale := cfg.ComputeScale
	if scale < 1 {
		scale = 1
	}
	k := build(m, cfg.Class, scale, cfg.Seed)

	threads := cfg.Threads
	if threads == 0 {
		threads = m.NumCPUs()
	}
	team, err := omp.NewTeam(m, threads)
	if err != nil {
		return nil, nil, nil, err
	}

	// Parallel initialisation plus one cold-start iteration: the tuned
	// NAS codes initialise in parallel and execute the complete parallel
	// computation once before the timed loop purely to let first-touch
	// place the pages. Serial mode makes fault resolution deterministic;
	// results are discarded.
	// Reference-counter rows accumulated here are dead state: the prefix
	// ends by resetting every row, so the per-miss bookkeeping below
	// would be discarded wholesale. Eliding it leaves the post-reset
	// machine bit-identical and shaves the cold start for every engine.
	m.SetRefCounting(false)
	team.SetSerial(true)
	k.InitTouch(team)
	k.Step(team, nil)
	team.SetSerial(false)
	k.Reinit()
	m.PT.ResetAllCounters()
	m.SetRefCounting(true)
	return m, k, team, nil
}

// runMain arms the configured migration engines and runs the timed main
// loop plus verification — everything after the divergence point. The
// kernel engine attaches here rather than before the cold start: a
// disabled engine's barrier hook is a pure no-op, so attaching the
// engine late is bit-identical to carrying it disabled through the
// prefix, and it keeps the prefix machine hook-free (barrier hooks are
// closures and cannot be cloned; see machine.Machine.Clone).
func runMain(m *machine.Machine, k Kernel, team *omp.Team, cfg Config) (Result, error) {
	hs := cfg.HostStages
	hs.lap(stageTimedLoop)
	// The team's coroutines go when the run ends, not when a later GC
	// finds the team unreachable.
	defer team.Rest()
	if cfg.UPM == UPMRecRep && !k.HasPhase() {
		return Result{}, fmt.Errorf("nas: %s has no phase change; record-replay does not apply", k.Name())
	}

	// The kernel engine is enabled only for the timed loop: that is where
	// the paper's engines compete, and letting it repair placement during
	// the untimed cold start would credit it with free migrations no real
	// run gets.
	eng := kmig.Attach(m, cfg.Kmig)
	eng.SetEnabled(cfg.KernelMig)

	var u *upm.UPM
	if cfg.UPM != UPMOff {
		u = upm.Init(m, cfg.UPMOptions)
		for _, r := range k.HotPages() {
			u.MemRefCnt(r[0], r[1])
		}
	}

	// With no counter consumer — no kernel engine, no UPMlib, no sampler —
	// the per-page reference-counter rows are dead state: nothing reads
	// them before the run ends, so the per-miss CountMissN bookkeeping can
	// be skipped outright. This is the hot path of the plain-IRIX cells.
	if !cfg.KernelMig && cfg.UPM == UPMOff && cfg.Metrics == nil {
		m.SetRefCounting(false)
	}

	// The steady-state detector observes only; extrapolation additionally
	// requires Extrapolate. A sampler disables both — it must see every
	// iteration simulated to sample it.
	var det *steadyDetector
	if cfg.SteadyState && cfg.Metrics == nil {
		det = newSteadyDetector(m, eng, u, cfg.SteadyWindow, cfg.KernelMig)
	}
	master := team.Master()
	res := Result{Kernel: k.Name(), Label: cfg.Label(), Class: cfg.Class, ColdPS: master.Now()}
	niter := cfg.Iterations
	if niter == 0 {
		niter = k.DefaultIterations()
	}
	// Arm the sampler at the head of the timed loop: the baseline sample
	// records the post-reset state every engine starts from, and event
	// tallies from the untimed cold start are discarded.
	if cfg.Metrics != nil {
		cfg.Metrics.Start(m, k.HotPages(), master.Now())
	}
	trc := cfg.tracer()
	start := master.Now()
	reactivated := false
	for step := 1; step <= niter; step++ {
		iterStart := master.Now()
		if trc != nil {
			trc.Emit(trace.Event{Time: iterStart, CPU: master.ID,
				Kind: trace.EvIterStart, Arg0: int64(step)})
		}
		hooks := stepHooks(u, cfg.UPM, step)
		k.Step(team, hooks)
		// Sample between the step's compute and the engine invocation:
		// this is the last point where the reference-counter rows hold
		// the iteration's accumulated refs (MigrateMemory resets the
		// rows it scans).
		if cfg.Metrics != nil {
			cfg.Metrics.SampleIteration(step, master.Now())
		}
		switch cfg.UPM {
		case UPMDistribute:
			// Figure 2: invoke after step 1 and then for as long as
			// the previous invocation migrated something (or after a
			// scheduler perturbation re-armed the engine).
			if step == 1 || reactivated || (u.Active() && u.LastMigrations() > 0) {
				u.MigrateMemory(master)
				reactivated = false
			}
		case UPMRecRep:
			// Figure 3: the initial distribution is approximated
			// after the first iteration only.
			if step == 1 {
				u.MigrateMemory(master)
			}
		}
		if trc != nil {
			trc.Emit(trace.Event{Time: master.Now(), CPU: master.ID,
				Kind: trace.EvIterEnd, Arg0: int64(step), Arg1: master.Now() - iterStart})
		}
		res.IterPS = append(res.IterPS, master.Now()-iterStart)
		if hooks != nil {
			res.PhasePS = append(res.PhasePS, hooks.phasePS)
		} else {
			res.PhasePS = append(res.PhasePS, 0)
		}
		if cfg.PerturbAt != 0 && step == cfg.PerturbAt {
			// The "OS" migrates every thread one node over.
			perm := team.Binding()
			shift := m.Cfg.CPUsPerNode
			rotated := make([]int, len(perm))
			for i := range perm {
				rotated[i] = perm[(i+shift)%len(perm)]
			}
			if err := team.SetBinding(rotated); err != nil {
				return Result{}, err
			}
			master = team.Master()
			if u != nil {
				u.Reactivate()
				reactivated = true
			}
		}
		// Observe after the iteration's full effect — engine invocations
		// and any perturbation included. Before PerturbAt the loop is
		// about to be disturbed, so observation starts past it.
		if det == nil || (cfg.PerturbAt != 0 && step <= cfg.PerturbAt) ||
			!det.observe(res.IterPS[step-1], res.PhasePS[step-1]) {
			continue
		}
		res.SteadyAt = step
		if trc != nil {
			trc.Emit(trace.Event{Time: master.Now(), CPU: master.ID,
				Kind: trace.EvSteadyState, Arg0: int64(step), Arg1: int64(det.window)})
		}
		r := int64(niter - step)
		if !cfg.Extrapolate || r == 0 {
			// Detection-only: record the iteration and keep simulating.
			det = nil
			continue
		}
		hs.lap(stageExtrapolate)
		det.fastForward(r)
		res.ExtrapolatedIters = int(r)
		dIter, dPhase := det.iterPhase()
		for i := int64(0); i < r; i++ {
			res.IterPS = append(res.IterPS, dIter)
			res.PhasePS = append(res.PhasePS, dPhase)
		}
		if trc != nil {
			// Stamped with the post-jump clock; Summarize treats it as
			// the timed loop's final mark.
			trc.Emit(trace.Event{Time: master.Now(), CPU: master.ID,
				Kind: trace.EvExtrapolate, Arg0: r, Arg1: dIter * r})
		}
		// The tail's numerics have exactly one consumer: Verify. When
		// the check is skipped, re-executing the remaining steps is pure
		// waste.
		if cfg.SkipVerify {
			break
		}
		// Re-execute the remaining steps in free-run mode: clocks are
		// frozen and accesses charge nothing, but the kernel's data
		// advances exactly as a simulated run's would, so Verify sees
		// the true final numerics. Engine calls are skipped (empty
		// hooks, no MigrateMemory) — on the proven period-one orbit
		// they only move time and page homes, never kernel values.
		hs.lap(stageFreeRunTail)
		m.SetFreeRun(true)
		for fs := step + 1; fs <= niter; fs++ {
			k.Step(team, &Hooks{})
		}
		m.SetFreeRun(false)
		break
	}
	res.TotalPS = master.Now() - start

	if u != nil {
		res.UPM = u.Stats()
	}
	res.KmigMoves = eng.Migrations()
	res.KmigCost = eng.Cost()
	res.Mach = m.Stats()
	for _, r := range k.HotPages() {
		res.PagesTotal += int(r[1] - r[0])
	}
	if !cfg.SkipVerify {
		hs.lap(stageVerify)
		res.VerifyErr = k.Verify()
		res.Verified = res.VerifyErr == nil
	}
	if hs != nil && cfg.SteadyState && res.ExtrapolatedIters == 0 {
		hs.WhyNot = runWhyNot(cfg, det, res)
	}
	return res, nil
}

// runWhyNot builds the typed diagnosis for a run whose steady-state
// machinery was armed but never fast-forwarded anything: the sampler
// veto, the proven-but-declined cases, or — when detection itself never
// fired — the detector's own evidence of what broke the orbit.
func runWhyNot(cfg Config, det *steadyDetector, res Result) *WhyNot {
	switch {
	case cfg.Metrics != nil:
		return &WhyNot{Reason: WhyNotSampler}
	case res.SteadyAt > 0:
		w := &WhyNot{Observed: res.SteadyAt}
		if cfg.Extrapolate {
			w.Reason = WhyNotNoTail
		} else {
			w.Reason = WhyNotDetectionOnly
		}
		return w
	case det != nil:
		return det.diagnose(cfg.PerturbAt)
	}
	return nil
}

// stepHooks builds the record–replay hooks of the paper's Figure 3 for
// the given step: step 2 records around the phase and compares; later
// steps replay before it and undo after it.
func stepHooks(u *upm.UPM, mode Mode, step int) *Hooks {
	if u == nil || mode != UPMRecRep {
		return &Hooks{}
	}
	h := &Hooks{}
	switch {
	case step == 1:
		// Plain first iteration; MigrateMemory runs after it.
	case step == 2:
		h.BeforePhase = func(c *machine.CPU) { u.Record(c) }
		h.AfterPhase = func(c *machine.CPU) {
			u.Record(c)
			u.CompareCounters(c)
		}
	default:
		h.BeforePhase = func(c *machine.CPU) { u.Replay(c) }
		h.AfterPhase = func(c *machine.CPU) { u.Undo(c) }
	}
	return h
}
