package nas

// Steady-state fast-forward. The NAS main loops are iterative solvers on
// fixed partitionings: once the migration engines stop moving pages the
// reference string repeats exactly, so every later iteration advances
// every virtual-time quantity by the same delta — or, when an engine's
// scan cadence divides the loop unevenly (kmig's ScanEvery), by a short
// repeating cycle of deltas. The detector proves the repetition from the
// counters themselves — it fingerprints nothing about the kernel — and
// the driver then extrapolates the remaining iterations by multiplying
// the proven cycle of per-iteration deltas into the machine, engine and
// per-phase counters instead of simulating them.
//
// Soundness. The simulator is a deterministic function of (kernel data,
// page homes + counter rows, cache/TLB/clock state, engine decision
// state). The detector's vector covers every counter that can influence a
// future decision or output: all per-CPU clocks and statistics, cache
// hit/miss/tick counters, page-table fault/migration tallies, both
// engines' cumulative statistics and decision cursors, the per-iteration
// and per-phase durations, and a hash of the page-home map (plus the
// reference-counter rows when the kernel engine — the only consumer whose
// decisions read them — is enabled). If the last (window−1)·k deltas each
// equal the delta k iterations before them, with the home-map hash
// equally periodic, the system is on a period-k orbit: window−1 full
// cycles reproduced the cycle before them, so the next iteration starts
// from the same relative state as the one k back and must reproduce its
// delta. Summing the cycle's deltas with the right multiplicities (the
// remaining iterations walk the cycle positions in order) therefore lands
// on exactly the counters a full simulation would reach — the
// bit-identity tests in steady_test.go assert this per benchmark, engine,
// placement and period. k=1 reduces to the original period-one detector:
// same firing iteration, same extrapolation.
//
// The kernel's numerics are not extrapolated: the driver re-executes the
// remaining steps in the machine's free-run mode, where data movement is
// real but clocks are frozen and accesses charge nothing, so Verify sees
// the same floating-point state as a fully simulated run.

import (
	"upmgo/internal/kmig"
	"upmgo/internal/machine"
	"upmgo/internal/upm"
)

// steadyWindowDefault is the number of consecutive identical
// per-iteration cycles required before the loop is declared steady.
// Three balances confidence against wasted simulation: the engines'
// transients (UPMlib deactivation, kernel-engine decay convergence)
// produce at most pairwise-equal deltas, never three in a row.
const steadyWindowDefault = 3

// steadyPeriodMax caps the orbit length the detector considers. Kernel
// migration cells cycle through a small set of scan states (kmig's
// ScanEvery and decay cadence), so short periods cover every real cell; a
// larger cap only delays the adversarial fallback (a period-9 string must
// run fully simulated — steady_test.go pins it).
const steadyPeriodMax = 8

// periodTracker is the pure cycle-detection core: a stream of
// (delta-vector, state-hash) observations in, the minimal proven period
// out. Split from steadyDetector so synthetic streams — period-2..8
// cycles, the period-9 adversary, aperiodic noise — can be unit-tested
// without building a machine.
type periodTracker struct {
	kmax, window int
	// diagKmax extends the ring and match bookkeeping one period past
	// the larger of kmax and the global cap, for diagnosis only: a
	// period-9 adversary (or a period-2 orbit under a cap of 1) then
	// shows up as a candidate that *did* prove itself beyond the cap.
	// The firing loop never consults k > kmax, and a ring larger than
	// kmax holds every lag ≤ kmax entry at the same slot age, so
	// detection behaviour — and Result.SteadyAt — is bit-identical to
	// the exact-size ring.
	diagKmax int
	ring     [][]int64 // last diagKmax delta vectors, slot = index % diagKmax
	hashes   []uint64  // state hash observed with each ring entry
	n        int       // observations pushed so far
	matches  []int     // matches[k-1]: consecutive successful lag-k compares
	period   int       // proven period, set when push returns true

	// Diagnostic state (never read by the firing rule).
	maxMatches []int      // longest streak ever seen per candidate k
	lastFail   []failInfo // why the most recent lag-k compare failed
	homeMoves  int        // pushes whose state hash differed from the previous
	lastHash   uint64
}

// failInfo records why one lag-k comparison failed: the state hash moved
// (hash true), or delta element idx was the first to diverge.
type failInfo struct {
	hash bool
	idx  int
}

func newPeriodTracker(kmax, window int) *periodTracker {
	if kmax < 1 {
		kmax = 1
	}
	if window < 2 {
		window = 2
	}
	diag := steadyPeriodMax
	if kmax > diag {
		diag = kmax
	}
	diag++
	return &periodTracker{
		kmax:       kmax,
		window:     window,
		diagKmax:   diag,
		ring:       make([][]int64, diag),
		hashes:     make([]uint64, diag),
		matches:    make([]int, diag),
		maxMatches: make([]int, diag),
		lastFail:   make([]failInfo, diag),
	}
}

// push records one observation and reports whether a period has just been
// proven. The firing rule for period k is matches[k] ≥ (window−1)·k:
// the last window−1 whole cycles each reproduced the cycle before them.
// Candidates are tested in ascending k, so the proven period is minimal —
// and for k=1 the rule degenerates to window−1 consecutive identical
// deltas, exactly the original period-one detector's streak ≥ window.
func (t *periodTracker) push(delta []int64, hash uint64) bool {
	j := t.n + 1
	if j > 1 && hash != t.lastHash {
		t.homeMoves++
	}
	t.lastHash = hash
	// Compare out to diagKmax so candidates beyond the cap accumulate
	// diagnostic streaks; only k ≤ kmax may fire below.
	for k := 1; k <= t.diagKmax && k < j; k++ {
		s := (j - k) % t.diagKmax
		switch {
		case hash != t.hashes[s]:
			t.lastFail[k-1] = failInfo{hash: true, idx: -1}
			t.matches[k-1] = 0
		case !int64sEqual(delta, t.ring[s]):
			t.lastFail[k-1] = failInfo{idx: firstDiff(delta, t.ring[s])}
			t.matches[k-1] = 0
		default:
			t.matches[k-1]++
			if t.matches[k-1] > t.maxMatches[k-1] {
				t.maxMatches[k-1] = t.matches[k-1]
			}
		}
	}
	s := j % t.diagKmax
	t.ring[s] = append(t.ring[s][:0], delta...)
	t.hashes[s] = hash
	t.n = j
	for k := 1; k <= t.kmax && k < j; k++ {
		if t.matches[k-1] >= (t.window-1)*k {
			t.period = k
			return true
		}
	}
	return false
}

// trackerDiag summarises a tracker that never fired: the candidate
// period that came closest (or proved itself beyond the cap), its best
// streak against the firing requirement, why its latest comparison
// failed, and how often the state hash moved.
type trackerDiag struct {
	observed   int // deltas pushed
	bestPeriod int
	bestStreak int
	needed     int
	fail       failInfo
	beyondCap  bool
	homeMoves  int
}

// diagnose picks the best candidate orbit. A candidate beyond the
// firing cap that reproduced at least two full cycles (streak ≥ 2k)
// wins outright — the loop is periodic, just longer than the detector
// may prove, which is the adversarial-fallback evidence the firing rule
// itself might never accumulate under a large window. Otherwise the
// candidate with the highest streak-to-requirement ratio is reported
// together with its most recent failure.
func (t *periodTracker) diagnose() trackerDiag {
	d := trackerDiag{observed: t.n, homeMoves: t.homeMoves, fail: failInfo{idx: -1}}
	best := -1.0
	for k := 1; k <= t.diagKmax; k++ {
		need := (t.window - 1) * k
		streak := t.maxMatches[k-1]
		if k > t.kmax && streak >= 2*k {
			return trackerDiag{observed: t.n, homeMoves: t.homeMoves,
				bestPeriod: k, bestStreak: streak, needed: need,
				beyondCap: true, fail: failInfo{idx: -1}}
		}
		if prog := float64(streak) / float64(need); prog > best {
			best = prog
			d.bestPeriod, d.bestStreak, d.needed = k, streak, need
			d.fail = t.lastFail[k-1]
		}
	}
	return d
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

// cycleDelta returns the proven cycle's delta at position p (0 ≤ p <
// period) in chronological order: position 0 is the delta the iteration
// after detection will reproduce. Valid only after push returned true.
func (t *periodTracker) cycleDelta(p int) []int64 {
	k := t.period
	return t.ring[(t.n-k+1+p)%t.diagKmax]
}

// steadyDetector accumulates one counter snapshot per timed iteration and
// reports when the trailing deltas prove a period-k orbit.
type steadyDetector struct {
	m      *machine.Machine
	eng    *kmig.Engine
	u      *upm.UPM // nil when the config runs without UPMlib
	window int
	// withRows extends the page-table hash over the reference-counter
	// rows. Required exactly when the kernel engine is enabled: its scans
	// read the rows, so row state influences future decisions. Without it
	// the rows are excluded — they grow monotonically with every miss and
	// would never repeat, masking genuinely steady loops.
	withRows bool

	// Cumulative pseudo-counters folded into the snapshot so that their
	// per-iteration values participate in the delta comparison.
	cumIter, cumPhase int64

	trk              *periodTracker
	prev, cur, delta []int64
	havePrev         bool
	observed         int // timed iterations observed (snapshots taken)
}

// newSteadyDetector builds a detector with the given confirmation window
// (0 = default 3) and period cap kmax (0 = steadyPeriodMax). Runs always
// use the full cap; white-box tests pass 1 to restrict detection to
// period-one orbits.
func newSteadyDetector(m *machine.Machine, eng *kmig.Engine, u *upm.UPM, window, kmax int, withRows bool) *steadyDetector {
	if window <= 0 {
		window = steadyWindowDefault
	}
	if kmax <= 0 || kmax > steadyPeriodMax {
		kmax = steadyPeriodMax
	}
	n := m.CounterLen() + eng.CounterLen() + 2
	if u != nil {
		n += u.CounterLen()
	}
	return &steadyDetector{
		m: m, eng: eng, u: u, window: window, withRows: withRows,
		trk:   newPeriodTracker(kmax, window),
		prev:  make([]int64, 0, n),
		cur:   make([]int64, 0, n),
		delta: make([]int64, 0, n),
	}
}

// snapshot appends the full counter vector to dst and returns it.
func (d *steadyDetector) snapshot(dst []int64) []int64 {
	dst = d.m.AppendCounters(dst)
	dst = d.eng.AppendCounters(dst)
	if d.u != nil {
		dst = d.u.AppendCounters(dst)
	}
	return append(dst, d.cumIter, d.cumPhase)
}

// observe records the counter state at the end of one timed iteration
// (iterPS and phasePS are that iteration's durations) and reports whether
// the loop has just been proven steady; period() then yields the orbit
// length. The hash is folded into the periodicity test by value, not by
// delta: counters advance, the home map must cycle through the same k
// states.
func (d *steadyDetector) observe(iterPS, phasePS int64) bool {
	d.observed++
	d.cumIter += iterPS
	d.cumPhase += phasePS
	d.cur = d.snapshot(d.cur[:0])
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

// period returns the proven orbit length. Valid only after observe has
// returned true.
func (d *steadyDetector) period() int { return d.trk.period }

// cycleIterPhase returns the proven per-iteration and per-phase durations
// at cycle position p — the values extrapolated iterations at that
// position append to IterPS/PhasePS. Valid only after observe has
// returned true.
func (d *steadyDetector) cycleIterPhase(p int) (int64, int64) {
	dd := d.trk.cycleDelta(p)
	return dd[len(dd)-2], dd[len(dd)-1]
}

// fastForward advances machine and engine counters by r further
// iterations of the proven orbit: the remaining iterations walk the cycle
// positions in order starting at position 0, so position p occurs
// ⌈(r−p)/k⌉ times. Valid only after observe has returned true. For
// period 1 this is exactly r applications of the single proven delta.
func (d *steadyDetector) fastForward(r int64) {
	k := int64(d.trk.period)
	for p := int64(0); p < k; p++ {
		mult := r / k
		if p < r%k {
			mult++
		}
		if mult == 0 {
			continue
		}
		d.applyDelta(d.trk.cycleDelta(int(p)), mult)
	}
}

// applyDelta adds mult repetitions of one per-iteration delta vector to
// the machine, engine and cumulative counters.
func (d *steadyDetector) applyDelta(dd []int64, mult int64) {
	off := d.m.CounterLen()
	d.m.ApplyCounterDelta(dd[:off], mult)
	n := d.eng.CounterLen()
	d.eng.ApplyCounterDelta(dd[off:off+n], mult)
	off += n
	if d.u != nil {
		n = d.u.CounterLen()
		d.u.ApplyCounterDelta(dd[off:off+n], mult)
		off += n
	}
	d.cumIter += dd[off] * mult
	d.cumPhase += dd[off+1] * mult
}

// counterName maps a delta-vector index to the name of the counter at
// that position, following the snapshot layout exactly: machine, kernel
// engine, UPMlib (when present), then the iteration/phase
// pseudo-counters. Out-of-range indices (and the hash pseudo-position
// −1) name the page-home map itself.
func (d *steadyDetector) counterName(idx int) string {
	if idx < 0 {
		return "page_homes"
	}
	names := d.m.AppendCounterNames(nil)
	names = d.eng.AppendCounterNames(names)
	if d.u != nil {
		names = d.u.AppendCounterNames(names)
	}
	names = append(names, "iter_ps", "phase_ps")
	if idx >= len(names) {
		return "page_homes"
	}
	return names[idx]
}

// diagnose explains why the detector never fired, as a typed WhyNot.
// Called only on a detector whose observe never returned true.
func (d *steadyDetector) diagnose(perturbAt int) *WhyNot {
	g := d.trk.diagnose()
	w := &WhyNot{
		Observed:     d.observed,
		BestPeriod:   g.bestPeriod,
		BestStreak:   g.bestStreak,
		NeededStreak: g.needed,
		HomeMoves:    g.homeMoves,
	}
	switch {
	case g.beyondCap:
		// The orbit proved itself at a period the cap excludes: the
		// adversarial fallback.
		w.Reason = WhyNotPeriodBeyondCap
	case perturbAt > 0:
		w.Reason = WhyNotPerturbed
		w.PerturbIter = perturbAt
	case d.observed < d.window+1:
		// Even a perfectly period-one loop needs window+1 observations
		// (window deltas) before the streak can reach window−1.
		w.Reason = WhyNotLoopTooShort
	case g.fail.hash:
		w.Reason = WhyNotHomesMoving
		w.FirstDivergent = "page_homes"
	default:
		w.Reason = WhyNotAperiodic
		w.FirstDivergent = d.counterName(g.fail.idx)
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
