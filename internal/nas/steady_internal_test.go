package nas

// White-box tests of the period-one detector core, on synthetic
// observation streams — no kernel, no timed loop. The system-level
// bit-identity contracts live in steady_test.go and synth_test.go.

import (
	"testing"

	"upmgo/internal/kmig"
	"upmgo/internal/machine"
	"upmgo/internal/upm"
)

// TestPeriodTrackerDetectsSmallPeriods: of strict period-k streams of
// distinct deltas, only period one is proven, on the window-th push and
// with the repeated delta; a cycle of any longer period — 2, 3, 5 or 8 —
// never lines two consecutive deltas up, so it never fires and its best
// streak stays 0.
func TestPeriodTrackerDetectsSmallPeriods(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 8} {
		trk := newPeriodTracker(3)
		fireAt := -1 // 1-based observation index of the firing push
		for i := 0; i < 100 && fireAt < 0; i++ {
			if trk.push([]int64{int64(i % k)}, 7) {
				fireAt = i + 1
			}
		}
		if k == 1 {
			if fireAt != 3 {
				t.Errorf("period-1 stream fired at push %d, want 3", fireAt)
			}
			if trk.last[0] != 0 {
				t.Errorf("period-1 stream proved delta %v, want [0]", trk.last)
			}
			continue
		}
		if fireAt >= 0 {
			t.Errorf("period-%d stream fired at push %d", k, fireAt)
		}
		if trk.maxStreak != 0 {
			t.Errorf("period-%d stream: best streak %d, want 0", k, trk.maxStreak)
		}
	}
}

// TestPeriodTrackerPeriodOneEquivalence: the firing rule is window
// consecutive identical deltas, firing exactly on the window-th, and the
// proven delta is the repeated one.
func TestPeriodTrackerPeriodOneEquivalence(t *testing.T) {
	for _, window := range []int{2, 3, 5} {
		trk := newPeriodTracker(window)
		for i := 0; i < window-1; i++ {
			if trk.push([]int64{42}, 9) {
				t.Fatalf("window %d fired early at push %d", window, i+1)
			}
		}
		if !trk.push([]int64{42}, 9) {
			t.Fatalf("window %d did not fire on the window-th identical delta", window)
		}
		if trk.last[0] != 42 {
			t.Errorf("window %d proved delta %v, want [42]", window, trk.last)
		}
	}
}

// TestPeriodTrackerAdversaries: streams the tracker must never fire on —
// a period-9 cycle of distinct deltas, strictly growing deltas, and a
// repeating delta whose state hash cycles (hash equality is by value, so
// a moving hash breaks every streak).
func TestPeriodTrackerAdversaries(t *testing.T) {
	trk := newPeriodTracker(3)
	for i := 0; i < 200; i++ {
		if trk.push([]int64{int64(i % 9)}, 7) {
			t.Fatalf("fired on a period-9 stream at push %d", i+1)
		}
	}
	if trk.maxStreak != 0 {
		t.Errorf("period-9 stream: best streak %d, want 0", trk.maxStreak)
	}
	trk = newPeriodTracker(3)
	for i := 0; i < 200; i++ {
		if trk.push([]int64{int64(i)}, 7) {
			t.Fatalf("fired on aperiodic growth at push %d", i+1)
		}
	}
	for _, k := range []int{2, 9} {
		trk = newPeriodTracker(3)
		for i := 0; i < 200; i++ {
			if trk.push([]int64{42}, uint64(i%k)) {
				t.Fatalf("fired across a period-%d hash cycle at push %d", k, i+1)
			}
		}
		if !trk.lastFail.hash || trk.homeMoves != 199 {
			t.Errorf("period-%d hash cycle: last failure %+v after %d home moves, want a hash failure after 199",
				k, trk.lastFail, trk.homeMoves)
		}
	}
}

// period3Detector drives the detector over iters iterations of a one-CPU
// loop whose compute time cycles with period 3: every iteration reads a
// small resident array, every third charges extra flops. It returns the
// detector and the iteration it fired at (0 = never).
func period3Detector(t *testing.T, iters int) (*steadyDetector, int) {
	t.Helper()
	m, err := machine.New(machine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := kmig.Attach(m, kmig.Config{})
	eng.SetEnabled(false)
	det := newSteadyDetector(m, eng, nil, 0, false)
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

// TestWhyNotPeriodBeyondCapRestricted: the detector's period cap is one,
// so a genuine period-3 orbit lies beyond it. The detector refuses it
// over the whole loop, and the diagnosis calls the deltas aperiodic,
// naming a counter and a best streak short of the window.
func TestWhyNotPeriodBeyondCapRestricted(t *testing.T) {
	det, at := period3Detector(t, 24)
	if at != 0 {
		t.Fatalf("period-one detector claimed an orbit at iteration %d", at)
	}
	w := det.diagnose(0)
	if w.Reason != WhyNotAperiodic {
		t.Fatalf("reason = %q, want %q (%s)", w.Reason, WhyNotAperiodic, w)
	}
	if w.FirstDivergent == "" || w.FirstDivergent == "page_homes" {
		t.Errorf("first divergent = %q, want a counter", w.FirstDivergent)
	}
	if w.Observed != 24 || w.BestStreak >= w.NeededStreak {
		t.Errorf("observed %d, best streak %d/%d: want 24 observed and a streak short of the window",
			w.Observed, w.BestStreak, w.NeededStreak)
	}
}

// TestDetectorLayout pins the detector's counter layout with both engines
// attached on the paper's 16-CPU machine: the machine's per-CPU counters,
// then the page table's, the kernel engine's, UPMlib's and the iteration
// and phase pseudo-counters, in that order; index −1 and any index past
// the end name the page-home map.
func TestDetectorLayout(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig())
	eng := kmig.Attach(m, kmig.Config{})
	det := newSteadyDetector(m, eng, upm.Init(m, upm.Options{}), 0, true)
	last := m.NumCPUs()*8 - 1
	for idx, want := range map[int]string{
		-1:        "page_homes",
		0:         "cpu0_clock",
		last:      "cpu15_faults",
		last + 1:  "pt_migrations",
		last + 3:  "pt_collapses",
		last + 4:  "kmig_barriers",
		last + 9:  "kmig_last_scan",
		last + 10: "upm_invocations",
		last + 19: "upm_last_migs",
		last + 20: "iter_ps",
		last + 21: "phase_ps",
		last + 22: "page_homes",
	} {
		if got := det.counterName(idx); got != want {
			t.Errorf("counterName(%d) = %q, want %q", idx, got, want)
		}
	}
}
