package nas

// Steady-state fast-forward. The NAS main loops are iterative solvers on
// fixed partitionings: once the migration engines stop moving pages the
// reference string repeats exactly, so every later iteration advances
// every virtual-time quantity by the same delta. The detector proves the
// repetition from the counters themselves — it fingerprints nothing
// about the kernel — and the driver then extrapolates the remaining
// iterations by multiplying the proven per-iteration delta into the
// machine, engine and per-phase counters instead of simulating them.
//
// Soundness. The simulator is a deterministic function of (kernel data,
// page homes + counter rows, cache/TLB/clock state, engine decision
// state). The detector's vector covers every counter that can influence a
// future decision or output: all per-CPU clocks and statistics, cache
// hit/miss/tick counters, page-table fault/migration tallies, both
// engines' cumulative statistics and decision cursors, the per-iteration
// and per-phase durations, and a hash of the page-home map (plus the
// reference-counter rows and the scan gate's phase when the kernel
// engine — the only consumer whose decisions read them — is enabled). If
// window−1 consecutive deltas each equal the one before them, with the
// hash unchanged, the system is on a period-one orbit: the next
// iteration starts from the same relative state as the last and must
// reproduce its delta. Multiplying that delta into the counters therefore
// lands on exactly the counters a full simulation would reach — the
// bit-identity tests in steady_test.go assert this per benchmark, engine
// and placement. Longer orbits (an engine's scan cadence dividing the
// loop unevenly) are never proven; such cells simulate in full.
//
// The kernel's numerics are not extrapolated: the driver re-executes the
// remaining steps in the machine's free-run mode, where data movement is
// real but clocks are frozen and accesses charge nothing, so Verify sees
// the same floating-point state as a fully simulated run.

import (
	"upmgo/internal/counter"
	"upmgo/internal/kmig"
	"upmgo/internal/machine"
	"upmgo/internal/upm"
)

// steadyWindowDefault is the number of consecutive identical
// per-iteration deltas required before the loop is declared steady.
// Three balances confidence against wasted simulation: the engines'
// transients (UPMlib deactivation, kernel-engine decay convergence)
// produce at most pairwise-equal deltas, never three in a row.
const steadyWindowDefault = 3

// periodTracker is the pure detection core: a stream of (delta-vector,
// state-hash) observations in, a proven period-one orbit out. Split from
// steadyDetector so synthetic streams — a repeating delta, longer cycles,
// aperiodic noise — can be unit-tested without building a machine.
type periodTracker struct {
	window int
	last   []int64 // the previous delta; the proven delta once fired
	hash   uint64  // the state hash observed with last
	n      int     // observations pushed so far
	streak int     // consecutive pushes equal to their predecessor

	// Diagnostic state (never read by the firing rule).
	maxStreak int      // longest streak ever seen
	lastFail  failInfo // why the most recent comparison failed
	homeMoves int      // pushes whose state hash differed from the previous
}

// failInfo records why one comparison failed: the state hash moved
// (hash true), or delta element idx was the first to diverge.
type failInfo struct {
	hash bool
	idx  int
}

func newPeriodTracker(window int) *periodTracker {
	return &periodTracker{window: max(window, 2), lastFail: failInfo{idx: -1}}
}

// push records one observation and reports whether a period-one orbit
// has just been proven: the last window−1 deltas each equal the one
// before them, under an unchanged state hash.
func (t *periodTracker) push(delta []int64, hash uint64) bool {
	t.n++
	switch {
	case t.n == 1:
	case hash != t.hash:
		t.homeMoves++
		t.lastFail = failInfo{hash: true, idx: -1}
		t.streak = 0
	case !int64sEqual(delta, t.last):
		t.lastFail = failInfo{idx: firstDiff(delta, t.last)}
		t.streak = 0
	default:
		t.streak++
		t.maxStreak = max(t.maxStreak, t.streak)
	}
	t.last = append(t.last[:0], delta...)
	t.hash = hash
	return t.streak >= t.window-1
}

// firstDiff returns the first index where a and b differ, or -1 when
// equal. Lengths match by construction (one snapshot layout per run).
func firstDiff(a, b []int64) int {
	for i, v := range a {
		if i >= len(b) || v != b[i] {
			return i
		}
	}
	if len(b) > len(a) {
		return len(a)
	}
	return -1
}

// steadyDetector accumulates one counter snapshot per timed iteration and
// reports when the trailing deltas prove a period-one orbit.
type steadyDetector struct {
	m      *machine.Machine
	eng    *kmig.Engine
	window int
	// withRows extends the page-table hash over the reference-counter
	// rows. Required exactly when the kernel engine is enabled: its scans
	// read the rows, so row state influences future decisions. Without it
	// the rows are excluded — they grow monotonically with every miss and
	// would never repeat, masking genuinely steady loops.
	withRows bool

	// table is the snapshot layout: the machine's counters (per CPU, then
	// the page table's), the kernel engine's, UPMlib's when attached, then
	// the cumulative pseudo-counters below.
	table counter.Table
	// Cumulative pseudo-counters folded into the snapshot so that their
	// per-iteration values participate in the delta comparison.
	cumIter, cumPhase int64

	trk              *periodTracker
	prev, cur, delta []int64
	havePrev         bool
	observed         int // timed iterations observed (snapshots taken)
}

// newSteadyDetector builds a detector with the given confirmation window
// (0 = default 3). u is nil when the config runs without UPMlib.
func newSteadyDetector(m *machine.Machine, eng *kmig.Engine, u *upm.UPM, window int, withRows bool) *steadyDetector {
	if window <= 0 {
		window = steadyWindowDefault
	}
	d := &steadyDetector{m: m, eng: eng, window: window, withRows: withRows,
		trk: newPeriodTracker(window)}
	t := eng.CounterTable(m.CounterTable(nil))
	if u != nil {
		t = u.CounterTable(t)
	}
	d.table = append(t, counter.Of("iter_ps", &d.cumIter), counter.Of("phase_ps", &d.cumPhase))
	n := len(d.table)
	d.prev, d.cur, d.delta = make([]int64, 0, n), make([]int64, 0, n), make([]int64, 0, n)
	return d
}

// observe records the counter state at the end of one timed iteration
// (iterPS and phasePS are that iteration's durations) and reports whether
// the loop has just been proven steady. The hash is compared by value,
// not by delta: counters advance, the home map must stand still.
func (d *steadyDetector) observe(iterPS, phasePS int64) bool {
	d.observed++
	d.cumIter += iterPS
	d.cumPhase += phasePS
	d.cur = d.table.Snapshot(d.cur[:0])
	hash := d.m.PT.StateHash(d.m.AllocatedPages(), d.withRows)
	if d.withRows {
		// The kernel engine's ScanEvery gate position is decision state the
		// cumulative counters cannot expose (the gate reads barriers modulo
		// the cadence): fold it into the hash so iterations at different
		// gate phases never compare equal. Trivial gates return 0, keeping
		// every historical cell's detection point unchanged.
		hash = hash*0x100000001b3 + uint64(d.eng.GatePhase())
	}
	if !d.havePrev {
		d.prev, d.cur = d.cur, d.prev
		d.havePrev = true
		return false
	}
	d.delta = d.delta[:0]
	for i, v := range d.cur {
		d.delta = append(d.delta, v-d.prev[i])
	}
	d.prev, d.cur = d.cur, d.prev
	return d.trk.push(d.delta, hash)
}

// iterPhase returns the proven per-iteration and per-phase durations —
// the values every extrapolated iteration appends to IterPS/PhasePS.
// Valid only after observe has returned true.
func (d *steadyDetector) iterPhase() (int64, int64) {
	dd := d.trk.last
	return dd[len(dd)-2], dd[len(dd)-1]
}

// fastForward adds r repetitions of the proven delta to every counter of
// the table. Valid only after observe has returned true.
func (d *steadyDetector) fastForward(r int64) { d.table.Advance(d.trk.last, r) }

// counterName maps a delta-vector index to the name of the table's
// counter at that position. Out-of-range indices (and the hash
// pseudo-position −1) name the page-home map itself.
func (d *steadyDetector) counterName(idx int) string {
	if idx < 0 || idx >= len(d.table) {
		return "page_homes"
	}
	return d.table[idx].Name
}

// diagnose explains why the detector never fired, as a typed WhyNot.
// Called only on a detector whose observe never returned true.
func (d *steadyDetector) diagnose(perturbAt int) *WhyNot {
	t := d.trk
	w := &WhyNot{
		Observed:     d.observed,
		BestStreak:   t.maxStreak,
		NeededStreak: d.window - 1,
		HomeMoves:    t.homeMoves,
	}
	switch {
	case perturbAt > 0:
		w.Reason = WhyNotPerturbed
		w.PerturbIter = perturbAt
	case d.observed < d.window+1:
		// A period-one loop needs window+1 observations (window deltas)
		// before the streak can reach window−1.
		w.Reason = WhyNotLoopTooShort
	case t.lastFail.hash:
		w.Reason = WhyNotHomesMoving
		w.FirstDivergent = "page_homes"
	default:
		w.Reason = WhyNotAperiodic
		w.FirstDivergent = d.counterName(t.lastFail.idx)
	}
	return w
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}
