// Package kmig implements the baseline the paper compares against: an
// IRIX-style, kernel-level competitive page migration engine in the spirit
// of Verghese et al. (ASPLOS'96), the design the Origin2000 kernel adopted.
//
// The hardware counts, per page frame, the memory accesses from every
// node. When the count from some remote node exceeds the count from the
// page's home node by more than a threshold, the kernel migrates the page
// to that node, invalidating TLB entries machine-wide.
//
// The real engine is interrupt-driven; the simulator applies the same
// criterion at barriers (its quiescent points), which keeps runs
// deterministic. The migration cost — page copy plus one TLB-shootdown
// interrupt per processor — is charged to the barrier time, since every
// processor participates in the shootdown.
package kmig

import (
	"math"

	"upmgo/internal/counter"
	"upmgo/internal/machine"
	"upmgo/internal/trace"
)

// Config tunes the kernel engine.
type Config struct {
	// Threshold is the excess of remote over home accesses that triggers
	// a migration (the IRIX "predefined threshold").
	Threshold uint32 `json:"threshold,omitempty"`
	// MaxPerScan bounds migrations applied at one barrier, modelling the
	// kernel's resource-management throttle. 0 means the default.
	MaxPerScan int `json:"max_per_scan,omitempty"`
	// ScanEvery applies the policy only at every k-th barrier, modelling
	// the bounded rate at which interrupts fire. 0 means every barrier.
	ScanEvery int `json:"scan_every,omitempty"`
	// DecayEvery halves every page's counters at every k-th scan (the
	// kernel's aging step; it also un-saturates the 11-bit counters).
	// 0 means the default; negative disables decay.
	DecayEvery int `json:"decay_every,omitempty"`
	// MinScanPS spaces scans by simulated time: a barrier is eligible to
	// scan only when at least this many picoseconds have passed since the
	// last scan. The real daemon runs off the clock tick, not off every
	// synchronisation point, so on machines whose barriers are microseconds
	// apart it integrates counters over many barriers before deciding —
	// which is what filters out per-phase repartitioning flutter (pages
	// legitimately touched by different nodes in different phases of one
	// step). 0 means the default (64 page-migration costs, bounding the
	// worst-case scan overhead to a fraction of runtime); negative disables
	// the spacing so every barrier is eligible.
	MinScanPS int64 `json:"min_scan_ps,omitempty"`
}

// DefaultConfig mirrors the spirit of the IRIX defaults: migrate on a
// clear excess, few pages at a time. The threshold of 32 is calibrated
// to the paper machine's page geometry — 16KB pages of 128-byte L2
// lines, i.e. an excess worth a quarter of the page's coherence units;
// Attach rescales that ratio when the attached machine's pages hold a
// different number of lines (the shrunken Class S/W machines).
func DefaultConfig() Config {
	return Config{Threshold: 32, MaxPerScan: 16, ScanEvery: 1, DecayEvery: 1}
}

// Engine is an attached kernel migration engine.
type Engine struct {
	m   *machine.Machine
	cfg Config

	enabled  bool
	barriers int64
	scans    int64
	lastScan int64 // simulated time of the last scan; MinInt64 before any

	migrations int64
	rejected   int64 // candidates dropped by the per-scan throttle
	costPS     int64 // total picoseconds charged

	row []uint32 // scratch counter row
}

// Attach creates the engine and registers it on the machine's barriers.
// It starts enabled; SetEnabled(false) corresponds to running without
// DSM_MIGRATION.
func Attach(m *machine.Machine, cfg Config) *Engine {
	if cfg.Threshold == 0 {
		// Scale the default to the machine: the canonical 32 assumes
		// 16KB/128B = 128 lines per page, so keep the excess at a
		// quarter of the lines one page holds.
		cfg.Threshold = uint32(m.Cfg.PageBytes/m.Cfg.L2Line) / 4
		if cfg.Threshold == 0 {
			cfg.Threshold = 1
		}
	}
	if cfg.MaxPerScan == 0 {
		// The canonical 16 is the IRIX throttle on the paper's 16-CPU
		// machine: one page per processor per scan. Hierarchical machines
		// have more processors generating counter traffic, so the scan
		// budget scales with them; at or below 16 CPUs (every paper-class
		// machine) the default is unchanged.
		cfg.MaxPerScan = max(DefaultConfig().MaxPerScan, m.NumCPUs())
	}
	if cfg.ScanEvery == 0 {
		cfg.ScanEvery = 1
	}
	if cfg.DecayEvery == 0 {
		cfg.DecayEvery = DefaultConfig().DecayEvery
	}
	if cfg.MinScanPS == 0 {
		cfg.MinScanPS = 64 * m.MigrationCost()
	}
	e := &Engine{m: m, cfg: cfg, enabled: true, lastScan: math.MinInt64,
		row: make([]uint32, m.Topo.Nodes())}
	m.AddBarrierHook(e.hook)
	return e
}

// SetEnabled turns the engine on or off (DSM_MIGRATION).
func (e *Engine) SetEnabled(on bool) { e.enabled = on }

// Enabled reports whether the engine is active.
func (e *Engine) Enabled() bool { return e.enabled }

// Migrations returns the number of pages the engine has moved.
func (e *Engine) Migrations() int64 { return e.migrations }

// Rejected returns the number of eligible pages dropped by the throttle.
func (e *Engine) Rejected() int64 { return e.rejected }

// Cost returns the total picoseconds of migration overhead charged.
func (e *Engine) Cost() int64 { return e.costPS }

// CounterTable appends the engine's cumulative counters to t: barriers
// seen, scans run, pages migrated, candidates rejected, picoseconds
// charged, and the lastScan time cursor. The steady-state detector folds
// them into the per-iteration delta vector: equal deltas mean the engine
// does the same work (possibly none) every iteration. lastScan must be
// included: it is decision state (the MinScanPS gate reads it), and
// equal scan-count deltas alone do not pin the scan-spacing phase — a
// time-gated scan cadence that divides the iteration time unevenly
// drifts through the iterations while keeping per-iteration scan counts
// equal, until an iteration suddenly gets one scan more or fewer (FT's
// short Class S iterations exhibit exactly this). With lastScan in the
// vector such drift breaks delta equality and the detector rightly
// refuses to fire. The fast-forward advances lastScan with its proven
// delta too: on a period-one orbit the last scan time moves forward by
// exactly k iterations' span, which keeps the MinScanPS gate's phase
// correct if charged simulation ever resumes after the jump.
func (e *Engine) CounterTable(t counter.Table) counter.Table {
	return append(t, counter.Of("kmig_barriers", &e.barriers),
		counter.Of("kmig_scans", &e.scans), counter.Of("kmig_migrations", &e.migrations),
		counter.Of("kmig_rejected", &e.rejected), counter.Of("kmig_cost_ps", &e.costPS),
		counter.Of("kmig_last_scan", &e.lastScan))
}

// GatePhase returns the ScanEvery gate's modular position — the one piece
// of decision state that per-iteration counter deltas cannot expose. Two
// iterations with identical deltas but different phases behave differently
// at future barriers (the gate fires on barriers ≡ 0 mod ScanEvery), so
// the steady-state detector folds the phase into its state hash: a long
// scan cadence's quiet stretches then never masquerade as a period-one
// orbit. Always 0 when the gate is trivial (ScanEvery ≤ 1).
func (e *Engine) GatePhase() int64 {
	if e.cfg.ScanEvery > 1 {
		return e.barriers % int64(e.cfg.ScanEvery)
	}
	return 0
}

// hook runs at every barrier: scan the allocated pages, apply the
// competitive criterion, migrate up to MaxPerScan pages, reset the moved
// pages' counters, and return the overhead to add to the barrier time.
func (e *Engine) hook(now int64) int64 {
	if !e.enabled {
		return 0
	}
	e.barriers++
	if e.cfg.ScanEvery > 1 && e.barriers%int64(e.cfg.ScanEvery) != 0 {
		return 0
	}
	if e.cfg.MinScanPS > 0 && e.lastScan != math.MinInt64 && now-e.lastScan < e.cfg.MinScanPS {
		return 0
	}
	e.lastScan = now
	e.scans++
	pt := e.m.PT
	moved := 0
	var cost int64
	perPage := e.m.MigrationCost()
	npages := e.m.AllocatedPages()
	decay := e.cfg.DecayEvery > 0 && e.scans%int64(e.cfg.DecayEvery) == 0
	trc := e.m.Tracer()
	var moves []trace.PageMove
	for vpn := uint64(0); vpn < npages; vpn++ {
		home := pt.Home(vpn)
		if home < 0 {
			continue
		}
		row := pt.Counters(vpn, e.row)
		if decay {
			// Decisions below use the copied row; age the live counters.
			pt.DecayCounters(vpn)
		}
		best, bestCount := -1, uint32(0)
		for n, c := range row {
			if n != home && c > bestCount {
				best, bestCount = n, c
			}
		}
		if best < 0 || bestCount <= row[home] || bestCount-row[home] <= e.cfg.Threshold {
			continue
		}
		if moved >= e.cfg.MaxPerScan {
			e.rejected++
			continue
		}
		if res := pt.Migrate(vpn, best); res.Moved {
			moved++
			e.migrations++
			cost += perPage
			pt.ResetCounters(vpn)
			if trc != nil {
				moves = append(moves, trace.PageMove{VPN: vpn, From: res.From, To: res.Dest})
			}
		}
	}
	e.costPS += cost
	if trc != nil {
		trc.Emit(trace.Event{Time: now, CPU: trace.KernelCPU, Kind: trace.EvKmigScan,
			Arg0: int64(moved), Arg1: cost})
		if moved > 0 {
			trc.Emit(trace.Event{Time: now, CPU: trace.KernelCPU, Kind: trace.EvKmigMigrate,
				Arg0: int64(moved), Pages: moves})
			// The interrupt-driven engine pays one shootdown round per page
			// (MigrationCost), unlike UPMlib's batched single round.
			trc.Emit(trace.Event{Time: now, CPU: trace.KernelCPU, Kind: trace.EvShootdown,
				Name: "kmig", Arg0: int64(moved)})
		}
	}
	return cost
}
