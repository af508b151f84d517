package nas

// White-box tests of the period-k cycle detector, on synthetic
// observation streams — no kernel, no timed loop. The system-level
// bit-identity contracts live in steady_test.go and synth_test.go.

import (
	"testing"

	"upmgo/internal/kmig"
	"upmgo/internal/machine"
)

// TestPeriodTrackerDetectsSmallPeriods: a strict period-k stream of
// distinct deltas is detected with the minimal period k for every k up to
// the cap, and the proven cycle's positions line up with the deltas the
// next iterations will reproduce.
func TestPeriodTrackerDetectsSmallPeriods(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 8} {
		trk := newPeriodTracker(8, 3)
		fireAt := -1 // 1-based observation index of the firing push
		for i := 0; i < 100 && fireAt < 0; i++ {
			if trk.push([]int64{int64(i % k)}, 7) {
				fireAt = i + 1
			}
		}
		if fireAt < 0 {
			t.Fatalf("period %d never fired", k)
		}
		if trk.period != k {
			t.Errorf("period-%d stream detected as period %d", k, trk.period)
		}
		// Minimal firing point: the first k pushes fill one cycle, then
		// (window-1)*k more must each match their lag-k predecessor.
		if want := k + 2*k; fireAt != want {
			t.Errorf("period %d fired at push %d, want %d", k, fireAt, want)
		}
		// cycleDelta(0) must be the delta the next push would carry.
		for p := 0; p < k; p++ {
			want := int64((fireAt + p) % k)
			if got := trk.cycleDelta(p); got[0] != want {
				t.Errorf("period %d cycleDelta(%d) = %d, want %d", k, p, got[0], want)
			}
		}
	}
}

// TestPeriodTrackerPeriodOneEquivalence: for k=1 the firing rule
// degenerates to the original period-one detector — window consecutive
// identical deltas, firing exactly on the window-th.
func TestPeriodTrackerPeriodOneEquivalence(t *testing.T) {
	for _, window := range []int{2, 3, 5} {
		trk := newPeriodTracker(1, window)
		for i := 0; i < window-1; i++ {
			if trk.push([]int64{42}, 9) {
				t.Fatalf("window %d fired early at push %d", window, i+1)
			}
		}
		if !trk.push([]int64{42}, 9) {
			t.Fatalf("window %d did not fire on the window-th identical delta", window)
		}
		if trk.period != 1 {
			t.Errorf("window %d proved period %d, want 1", window, trk.period)
		}
	}
}

// TestPeriodTrackerAdversaries: streams the tracker must never fire on —
// a period-9 cycle (beyond the cap 8), strictly growing deltas, and a
// repeating delta whose state hash cycles with period 9 (hash equality is
// by value, so no k ≤ 8 ever lines the hashes up).
func TestPeriodTrackerAdversaries(t *testing.T) {
	trk := newPeriodTracker(8, 3)
	for i := 0; i < 200; i++ {
		if trk.push([]int64{int64(i % 9)}, 7) {
			t.Fatalf("fired on a period-9 stream at push %d (period %d)", i+1, trk.period)
		}
	}
	trk = newPeriodTracker(8, 3)
	for i := 0; i < 200; i++ {
		if trk.push([]int64{int64(i)}, 7) {
			t.Fatalf("fired on aperiodic growth at push %d", i+1)
		}
	}
	trk = newPeriodTracker(8, 3)
	for i := 0; i < 200; i++ {
		if trk.push([]int64{42}, uint64(i%9)) {
			t.Fatalf("fired across a period-9 hash cycle at push %d", i+1)
		}
	}
}

// period3Detector drives a detector capped at kmax over iters iterations
// of a one-CPU loop whose compute time cycles with period 3: every
// iteration reads a small resident array, every third charges extra
// flops. It returns the detector and the iteration it fired at (0 =
// never).
func period3Detector(t *testing.T, kmax, iters int) (*steadyDetector, int) {
	t.Helper()
	m, err := machine.New(machine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := kmig.Attach(m, kmig.Config{})
	eng.SetEnabled(false)
	det := newSteadyDetector(m, eng, nil, 0, kmax, false)
	a := m.NewArray("hot", 64)
	c := m.CPU(0)
	for step := 1; step <= iters; step++ {
		start := c.Now()
		a.GetRun(c, 0, a.Len())
		extra := 0
		if step%3 == 0 {
			extra = 5000
		}
		c.Flops(100 + extra)
		if det.observe(c.Now()-start, 0) {
			return det, step
		}
	}
	return det, 0
}

// TestWhyNotPeriodBeyondCapRestricted: a genuine period-3 orbit, which
// the full cap proves, is refused by a detector capped at period one, and
// the diagnosis names it as periodic beyond the cap with the true period
// as the best candidate.
func TestWhyNotPeriodBeyondCapRestricted(t *testing.T) {
	full, at := period3Detector(t, steadyPeriodMax, 24)
	if at == 0 || full.period() != 3 {
		t.Fatalf("full cap: fired at %d with period %d, want a period-3 orbit", at, full.period())
	}
	det, at := period3Detector(t, 1, 24)
	if at != 0 {
		t.Fatalf("cap-1 detector claimed an orbit at iteration %d (period %d)", at, det.period())
	}
	w := det.diagnose(0)
	if w.Reason != WhyNotPeriodBeyondCap {
		t.Fatalf("reason = %q, want %q (%s)", w.Reason, WhyNotPeriodBeyondCap, w)
	}
	if w.BestPeriod != 3 {
		t.Errorf("best candidate period = %d, want 3", w.BestPeriod)
	}
}
