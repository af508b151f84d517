// Package upm implements UPMlib, the paper's contribution: a user-level
// dynamic page migration engine that gives OpenMP programs implicit data
// distribution and redistribution without any API change.
//
// Mechanisms, with the paper's Fortran entry points in parentheses:
//
//   - hot-area registration (upmlib_memrefcnt): the compiler marks shared
//     arrays that are both read and written across disjoint parallel
//     constructs; only their pages are monitored;
//   - iterative data distribution (upmlib_migrate_memory): after an outer
//     iteration, read the hardware reference counters of every hot page,
//     apply a competitive criterion, and migrate each eligible page to its
//     dominant accessor. Invoked while it keeps finding work; it
//     self-deactivates the first time no page moves. Pages that bounce
//     between two nodes in consecutive invocations are frozen;
//   - record–replay data redistribution (upmlib_record,
//     upmlib_compare_counters, upmlib_replay, upmlib_undo): snapshot the
//     counters at the phase boundaries of one iteration, isolate each
//     phase's reference trace by subtraction, pick the n most critical
//     pages per transition, replay those migrations before the phase in
//     every later iteration and undo them before the next iteration.
//
// All calls run in serial program sections on the calling simulated CPU
// and charge their scan and migration costs to it — the user-level
// engine's overhead is on the critical path exactly as in the paper.
package upm

import (
	"fmt"
	"sort"

	"upmgo/internal/counter"
	"upmgo/internal/machine"
	"upmgo/internal/trace"
)

// Options tunes the engine. Zero values take the paper's defaults.
type Options struct {
	// Threshold is the competitive ratio thr: a page is eligible when
	// raccmax/lacc > Threshold. The default is 2 (a remote node must
	// reference the page at least twice as often as its home).
	Threshold float64 `json:"threshold,omitempty"`
	// MinAccesses ignores pages with fewer total recorded accesses,
	// so cold pages do not migrate on noise. Default 16.
	MinAccesses uint32 `json:"min_accesses,omitempty"`
	// MaxCritical bounds the pages migrated per Replay call (the paper's
	// environment-variable n; its Figure 5 experiment sets 20).
	// It does not bound MigrateMemory. Default 20.
	MaxCritical int `json:"max_critical,omitempty"`
	// FreezeBounces is how many consecutive-invocation back-and-forth
	// moves a page may make before MigrateMemory freezes it. Default 1
	// (freeze on the first detected bounce, as in the paper).
	FreezeBounces int `json:"freeze_bounces,omitempty"`
	// ScanCostPerPage is the user-level cost of reading one page's
	// counter row through the /proc interface. Default 300 ns.
	ScanCostPerPage int64 `json:"scan_cost_per_page,omitempty"`
}

func (o *Options) setDefaults() {
	if o.Threshold == 0 {
		o.Threshold = 2
	}
	if o.MinAccesses == 0 {
		o.MinAccesses = 16
	}
	if o.MaxCritical == 0 {
		o.MaxCritical = 20
	}
	if o.FreezeBounces == 0 {
		o.FreezeBounces = 1
	}
	if o.ScanCostPerPage == 0 {
		o.ScanCostPerPage = 300 * 1000 // 300 ns in ps
	}
}

// Stats reports what the engine has done. The JSON tags are the wire form
// used by the sweep result store and the sweepd job API.
type Stats struct {
	Invocations      int   `json:"invocations"`                 // MigrateMemory calls
	Migrations       int64 `json:"migrations"`                  // pages moved by MigrateMemory
	FirstInvocation  int64 `json:"first_invocation"`            // of those, moved by the first invocation
	Frozen           int64 `json:"frozen,omitempty"`            // pages frozen for ping-ponging
	ReplayMigrations int64 `json:"replay_migrations,omitempty"` // pages moved by Replay
	UndoMigrations   int64 `json:"undo_migrations,omitempty"`   // pages moved back by Undo
	Replications     int64 `json:"replications,omitempty"`      // read copies created by ReplicateReadOnly
	OverheadPS       int64 `json:"overhead_ps"`                 // total cost charged to the calling CPU
}

// migOp is one page movement of a replay plan.
type migOp struct {
	vpn uint64
	dst int
}

// UPM is one attached engine instance (upmlib_init).
type UPM struct {
	m   *machine.Machine
	opt Options

	ranges [][2]uint64 // registered hot areas, [lo,hi) vpns

	active   bool
	lastMigs int

	// Ping-pong history: last invocation a page moved in and the home it
	// left behind.
	hist map[uint64]histEntry

	// Record–replay state.
	snaps  [][]uint32 // counter snapshots, one per Record call
	plans  [][]migOp  // per phase transition, after CompareCounters
	cursor int        // next plan Replay applies
	undo   []migOp    // inverse ops accumulated this iteration

	stats Stats
	row   []uint32
}

type histEntry struct {
	invocation int
	leftHome   int
	bounces    int
}

// Init attaches a UPMlib engine to the machine (upmlib_init).
func Init(m *machine.Machine, opt Options) *UPM {
	opt.setDefaults()
	return &UPM{
		m:      m,
		opt:    opt,
		active: true,
		hist:   make(map[uint64]histEntry),
		row:    make([]uint32, m.Topo.Nodes()),
	}
}

// MemRefCnt registers the page span [lo, hi) as a hot memory area
// (upmlib_memrefcnt). The machine package's Array.PageRange supplies the
// span for an array.
func (u *UPM) MemRefCnt(lo, hi uint64) {
	if hi <= lo {
		panic(fmt.Sprintf("upm: empty hot range [%d,%d)", lo, hi))
	}
	u.ranges = append(u.ranges, [2]uint64{lo, hi})
	// Registration is setup, not timed work; stamp it at time zero on the
	// kernel lane so it sorts to the head of the trace.
	if trc := u.m.Tracer(); trc != nil {
		trc.Emit(trace.Event{CPU: trace.KernelCPU, Kind: trace.EvUPMRegister,
			Arg0: int64(lo), Arg1: int64(hi)})
	}
}

// Active reports whether the iterative mechanism is still armed; it
// becomes false the first time MigrateMemory finds nothing to move.
func (u *UPM) Active() bool { return u.active }

// Reactivate re-arms the iterative mechanism after it deactivated itself.
// The paper's companion work on multiprogrammed machines re-enables the
// engine when the OS preempts or migrates threads, since that invalidates
// the established placement; the omp Team's SetBinding models exactly that
// intervention.
func (u *UPM) Reactivate() {
	u.active = true
	u.lastMigs = 0
	// The first post-reactivation decision must look at a fresh trace,
	// and migration history from the previous regime should not count as
	// ping-pong.
	u.hotPages(u.m.PT.ResetCounters)
	clear(u.hist)
}

// LastMigrations returns the number of pages moved by the most recent
// MigrateMemory call (the paper's num_migrations variable).
func (u *UPM) LastMigrations() int { return u.lastMigs }

// Stats returns a copy of the engine's counters.
func (u *UPM) Stats() Stats { return u.stats }

// Overhead returns the total picoseconds charged by the engine so far.
func (u *UPM) Overhead() int64 { return u.stats.OverheadPS }

// hotPages calls fn for every registered hot page.
func (u *UPM) hotPages(fn func(vpn uint64)) {
	for _, r := range u.ranges {
		for vpn := r[0]; vpn < r[1]; vpn++ {
			fn(vpn)
		}
	}
}

// charge adds ps of engine overhead to CPU c's clock.
func (u *UPM) charge(c *machine.CPU, ps int64) {
	c.Advance(ps)
	u.stats.OverheadPS += ps
}

// pageMoveCost is the per-page cost of a move within a batch; the engine
// coalesces the TLB shootdowns of one invocation into a single round
// (stale translations are detected by generation anyway), a key economy a
// user-level engine operating at quiescent points can exploit.
func (u *UPM) pageMoveCost() int64 { return u.m.PageMoveCost() }

// competitive applies the competitive criterion to a counter row: it
// returns the dominant remote node and the ratio raccmax/lacc, or ok=false
// when the page should stay (cold page, home-dominated, or below thr).
func (u *UPM) competitive(row []uint32, home int) (dst int, ratio float64, ok bool) {
	var total, raccmax uint32
	dst = -1
	for n, cnt := range row {
		total += cnt
		if n != home && cnt > raccmax {
			raccmax, dst = cnt, n
		}
	}
	if dst < 0 || total < u.opt.MinAccesses || raccmax == 0 {
		return -1, 0, false
	}
	lacc := row[home]
	if lacc == 0 {
		return dst, float64(raccmax) * 1e9, true
	}
	ratio = float64(raccmax) / float64(lacc)
	if ratio <= u.opt.Threshold {
		return -1, 0, false
	}
	return dst, ratio, true
}

// MigrateMemory scans the hot areas' counters, migrates every page whose
// reference trace satisfies the competitive criterion, resets the
// counters, and returns the number of pages moved
// (upmlib_migrate_memory). The calling CPU pays for the scan and for the
// moves. When no page moves, the mechanism deactivates itself; the NAS
// drivers mirror the paper by re-invoking it only while LastMigrations is
// positive.
func (u *UPM) MigrateMemory(c *machine.CPU) int {
	if !u.active {
		return 0
	}
	u.stats.Invocations++
	pt := u.m.PT
	trc := u.m.Tracer()
	var moves []trace.PageMove
	moved := 0
	var scanned int64
	u.hotPages(func(vpn uint64) {
		scanned++
		home := pt.Home(vpn)
		if home < 0 || pt.Frozen(vpn) {
			return
		}
		row := pt.Counters(vpn, u.row)
		dst, _, ok := u.competitive(row, home)
		if !ok {
			return
		}
		if u.pingPong(vpn, dst) {
			pt.Freeze(vpn)
			u.stats.Frozen++
			return
		}
		if res := pt.Migrate(vpn, dst); res.Moved {
			moved++
			u.hist[vpn] = histEntry{invocation: u.stats.Invocations, leftHome: home,
				bounces: u.hist[vpn].bounces}
			u.charge(c, u.pageMoveCost())
			if trc != nil {
				moves = append(moves, trace.PageMove{VPN: vpn, From: res.From, To: res.Dest})
			}
		}
	})
	if moved > 0 {
		u.charge(c, u.m.ShootdownCost())
		if trc != nil {
			trc.Emit(trace.Event{Time: c.Now(), CPU: c.ID, Kind: trace.EvShootdown,
				Name: "upm", Arg0: 1})
		}
	}
	// Fresh trace for the next iteration's decision.
	u.hotPages(pt.ResetCounters)
	u.charge(c, scanned*u.opt.ScanCostPerPage)
	u.lastMigs = moved
	u.stats.Migrations += int64(moved)
	if u.stats.Invocations == 1 {
		u.stats.FirstInvocation += int64(moved)
	}
	if trc != nil {
		trc.Emit(trace.Event{Time: c.Now(), CPU: c.ID, Kind: trace.EvUPMMigrate,
			Arg0: int64(moved), Arg1: int64(u.stats.Invocations), Pages: moves})
	}
	if moved == 0 {
		u.active = false // self-deactivation
		if trc != nil {
			trc.Emit(trace.Event{Time: c.Now(), CPU: c.ID, Kind: trace.EvUPMDeactivate,
				Arg0: int64(u.stats.Invocations)})
		}
	}
	return moved
}

// pingPong reports whether moving vpn to dst right now completes a
// bounce: the page moved in the previous invocation and would now return
// to the home it left. It also books the bounce.
func (u *UPM) pingPong(vpn uint64, dst int) bool {
	h, seen := u.hist[vpn]
	if !seen || h.invocation != u.stats.Invocations-1 || dst != h.leftHome {
		return false
	}
	h.bounces++
	u.hist[vpn] = h
	return h.bounces >= u.opt.FreezeBounces
}

// Record snapshots the counters of every hot page (upmlib_record). The
// compiler inserts one call at each phase boundary during the recording
// iteration.
func (u *UPM) Record(c *machine.CPU) {
	var snap []uint32
	var scanned int64
	u.hotPages(func(vpn uint64) {
		scanned++
		snap = append(snap, u.m.PT.Counters(vpn, u.row)...)
	})
	u.snaps = append(u.snaps, snap)
	u.charge(c, scanned*u.opt.ScanCostPerPage)
	if trc := u.m.Tracer(); trc != nil {
		trc.Emit(trace.Event{Time: c.Now(), CPU: c.ID, Kind: trace.EvUPMRecord,
			Arg0: int64(len(u.snaps) - 1)})
	}
}

// CompareCounters turns the recorded snapshots into per-phase-transition
// migration plans (upmlib_compare_counters): for each pair of consecutive
// snapshots it isolates the phase's trace Ui,j = Vi,j - Vi,j-1, applies
// the competitive criterion, sorts eligible pages by descending
// raccmax/lacc, and keeps the MaxCritical most critical pages.
func (u *UPM) CompareCounters(c *machine.CPU) {
	if len(u.snaps) < 2 {
		panic("upm: CompareCounters needs at least two Record calls")
	}
	nodes := u.m.Topo.Nodes()
	for s := 1; s < len(u.snaps); s++ {
		prev, cur := u.snaps[s-1], u.snaps[s]
		type cand struct {
			op    migOp
			ratio float64
		}
		var cands []cand
		idx := 0
		u.hotPages(func(vpn uint64) {
			row := make([]uint32, nodes)
			for n := 0; n < nodes; n++ {
				v, p := cur[idx+n], prev[idx+n]
				if v > p {
					row[n] = v - p
				}
			}
			idx += nodes
			home := u.m.PT.Home(vpn)
			if home < 0 {
				return
			}
			if dst, ratio, ok := u.competitive(row, home); ok {
				cands = append(cands, cand{op: migOp{vpn: vpn, dst: dst}, ratio: ratio})
			}
		})
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].ratio != cands[j].ratio {
				return cands[i].ratio > cands[j].ratio
			}
			return cands[i].op.vpn < cands[j].op.vpn
		})
		if len(cands) > u.opt.MaxCritical {
			// Keep the truncated plan balanced across destination
			// nodes: taking the top n purely by ratio can aim every
			// move at the same node (ties are common), concentrating
			// the phase's traffic and trading latency for queueing.
			// Round-robin across destinations, hottest first per node.
			byDst := make([][]cand, nodes)
			for _, cd := range cands {
				byDst[cd.op.dst] = append(byDst[cd.op.dst], cd)
			}
			picked := cands[:0]
			for len(picked) < u.opt.MaxCritical {
				progress := false
				for d := 0; d < nodes && len(picked) < u.opt.MaxCritical; d++ {
					if len(byDst[d]) > 0 {
						picked = append(picked, byDst[d][0])
						byDst[d] = byDst[d][1:]
						progress = true
					}
				}
				if !progress {
					break
				}
			}
			cands = picked
		}
		plan := make([]migOp, len(cands))
		for i, cd := range cands {
			plan[i] = cd.op
		}
		u.plans = append(u.plans, plan)
	}
	u.snaps = nil
	u.cursor = 0
	if trc := u.m.Tracer(); trc != nil {
		var planned int64
		for _, p := range u.plans {
			planned += int64(len(p))
		}
		trc.Emit(trace.Event{Time: c.Now(), CPU: c.ID, Kind: trace.EvUPMCompare,
			Arg0: int64(len(u.plans)), Arg1: planned})
	}
}

// Plans returns the number of phase-transition plans available.
func (u *UPM) Plans() int { return len(u.plans) }

// Replay applies the next phase transition's migration plan
// (upmlib_replay), remembering the inverse moves for Undo. Plans cycle:
// with k plans, the 1st, k+1th, ... calls apply plan 0.
func (u *UPM) Replay(c *machine.CPU) int {
	if len(u.plans) == 0 {
		return 0
	}
	plan := u.plans[u.cursor]
	planIdx := u.cursor
	u.cursor = (u.cursor + 1) % len(u.plans)
	trc := u.m.Tracer()
	var moves []trace.PageMove
	moved := 0
	for _, op := range plan {
		if res := u.m.PT.Migrate(op.vpn, op.dst); res.Moved {
			moved++
			u.undo = append(u.undo, migOp{vpn: op.vpn, dst: res.From})
			u.charge(c, u.pageMoveCost())
			if trc != nil {
				moves = append(moves, trace.PageMove{VPN: op.vpn, From: res.From, To: res.Dest})
			}
		}
	}
	if moved > 0 {
		u.charge(c, u.m.ShootdownCost())
		if trc != nil {
			trc.Emit(trace.Event{Time: c.Now(), CPU: c.ID, Kind: trace.EvShootdown,
				Name: "replay", Arg0: 1})
		}
	}
	u.stats.ReplayMigrations += int64(moved)
	if trc != nil {
		trc.Emit(trace.Event{Time: c.Now(), CPU: c.ID, Kind: trace.EvUPMReplay,
			Arg0: int64(moved), Arg1: int64(planIdx), Pages: moves})
	}
	return moved
}

// Undo reverses every migration Replay performed since the last Undo
// (upmlib_undo), restoring the iteration's initial data distribution.
func (u *UPM) Undo(c *machine.CPU) int {
	trc := u.m.Tracer()
	var moves []trace.PageMove
	moved := 0
	for i := len(u.undo) - 1; i >= 0; i-- {
		op := u.undo[i]
		if res := u.m.PT.Migrate(op.vpn, op.dst); res.Moved {
			moved++
			u.charge(c, u.pageMoveCost())
			if trc != nil {
				moves = append(moves, trace.PageMove{VPN: op.vpn, From: res.From, To: res.Dest})
			}
		}
	}
	if moved > 0 {
		u.charge(c, u.m.ShootdownCost())
		if trc != nil {
			trc.Emit(trace.Event{Time: c.Now(), CPU: c.ID, Kind: trace.EvShootdown,
				Name: "undo", Arg0: 1})
		}
	}
	u.undo = u.undo[:0]
	u.stats.UndoMigrations += int64(moved)
	if trc != nil {
		trc.Emit(trace.Event{Time: c.Now(), CPU: c.ID, Kind: trace.EvUPMUndo,
			Arg0: int64(moved), Pages: moves})
	}
	return moved
}

// ResetHotCounters zeroes the counters of every hot page; the record
// phase of the NAS drivers uses it to isolate a fresh trace.
func (u *UPM) ResetHotCounters() {
	u.hotPages(u.m.PT.ResetCounters)
}

// CounterTable appends the engine's cumulative statistics plus its
// per-iteration decision state (replay cursor, last migration count) to
// t. The steady-state detector folds them into the per-iteration delta:
// repeating deltas mean the engine repeats the same work every
// iteration — for a deactivated engine all deltas are zero, for
// record–replay the same plans move the same pages — and a stationary
// cursor (zero delta, the cursor wraps mod Plans() once per iteration)
// guarantees the plan sequence is aligned identically. The fast-forward
// advances cursor and lastMigs by their deltas too, which for a detected
// steady state are zero by construction.
func (u *UPM) CounterTable(t counter.Table) counter.Table {
	s := &u.stats
	return append(t, counter.Of("upm_invocations", &s.Invocations),
		counter.Of("upm_migrations", &s.Migrations),
		counter.Of("upm_first_invocation", &s.FirstInvocation),
		counter.Of("upm_frozen", &s.Frozen),
		counter.Of("upm_replay_migrations", &s.ReplayMigrations),
		counter.Of("upm_undo_migrations", &s.UndoMigrations),
		counter.Of("upm_replications", &s.Replications),
		counter.Of("upm_overhead_ps", &s.OverheadPS),
		counter.Of("upm_cursor", &u.cursor), counter.Of("upm_last_migs", &u.lastMigs))
}
