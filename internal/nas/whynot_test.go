package nas_test

import (
	"testing"

	"upmgo/internal/kmig"
	"upmgo/internal/metrics"
	"upmgo/internal/nas"
	"upmgo/internal/nas/bt"
	"upmgo/internal/vm"
)

// steadyCfg is the common arming: detector plus extrapolation, so a nil
// WhyNot means the fast path genuinely engaged.
func steadyCfg(iters int) nas.Config {
	return nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch, Threads: 1,
		Iterations: iters, SteadyState: true, Extrapolate: true}
}

func runWhy(t *testing.T, build nas.Builder, cfg nas.Config) *nas.WhyNot {
	t.Helper()
	res, err := nas.Run(build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExtrapolatedIters > 0 {
		t.Fatalf("fast path engaged (%d extrapolated); the case should decline", res.ExtrapolatedIters)
	}
	if res.FastPath.WhyNot == nil {
		t.Fatalf("declined fast-forward carries no WhyNot: %+v", res.FastPath)
	}
	return res.FastPath.WhyNot
}

// TestWhyNotLoopTooShort: fewer than window+1 timed iterations can never
// confirm even a period-one orbit; the diagnosis must say so, typed, not
// just report non-detection.
func TestWhyNotLoopTooShort(t *testing.T) {
	w := runWhy(t, bt.New, steadyCfg(3))
	if w.Reason != nas.WhyNotLoopTooShort {
		t.Fatalf("reason = %q, want %q (%s)", w.Reason, nas.WhyNotLoopTooShort, w)
	}
	if w.Observed != 3 {
		t.Errorf("observed = %d, want 3", w.Observed)
	}
}

// TestWhyNotPerturbed: a scheduler perturbation near the end of the loop
// breaks the orbit with too few iterations left for it to re-close. The
// diagnosis must name the perturbing iteration.
func TestWhyNotPerturbed(t *testing.T) {
	cfg := steadyCfg(10)
	cfg.PerturbAt = 8
	w := runWhy(t, bt.New, cfg)
	if w.Reason != nas.WhyNotPerturbed {
		t.Fatalf("reason = %q, want %q (%s)", w.Reason, nas.WhyNotPerturbed, w)
	}
	if w.PerturbIter != 8 {
		t.Errorf("perturb iteration = %d, want 8", w.PerturbIter)
	}
}

// TestWhyNotPeriodBeyondCapAdversary: the period-9 reference string of
// synth_test lies beyond the detector's period cap, one. The run
// simulates in full by design, and the diagnosis calls the stream
// aperiodic: the cycle's flat stretch comes closest, 7 equal deltas
// against the 8 a window of 9 needs.
func TestWhyNotPeriodBeyondCapAdversary(t *testing.T) {
	cfg := steadyCfg(30)
	cfg.SteadyWindow = 9
	w := runWhy(t, synthBuilder(0, 9), cfg)
	if w.Reason != nas.WhyNotAperiodic {
		t.Fatalf("reason = %q, want %q (%s)", w.Reason, nas.WhyNotAperiodic, w)
	}
	if w.BestStreak != 7 || w.NeededStreak != 8 {
		t.Errorf("best streak %d/%d, want 7/8", w.BestStreak, w.NeededStreak)
	}
}

// TestWhyNotHomesMoving: a kernel-migration campaign that outlasts the
// run keeps the page-home map in motion, so no counter orbit can close.
// The diagnosis must blame the moving homes, not the counters.
func TestWhyNotHomesMoving(t *testing.T) {
	cfg := nas.Config{
		Class: nas.ClassS, Placement: vm.FirstTouch, Threads: 1,
		Iterations: 10, KernelMig: true,
		Kmig:        kmig.Config{DecayEvery: -1, MinScanPS: -1},
		SteadyState: true, Extrapolate: true,
	}
	w := runWhy(t, synthBuilder(1000, 0), cfg)
	if w.Reason != nas.WhyNotHomesMoving {
		t.Fatalf("reason = %q, want %q (%s)", w.Reason, nas.WhyNotHomesMoving, w)
	}
	if w.HomeMoves == 0 {
		t.Error("homes_moving diagnosis reports zero home moves")
	}
	if w.FirstDivergent != "page_homes" {
		t.Errorf("first divergent = %q, want page_homes", w.FirstDivergent)
	}
}

// TestWhyNotDeclinedModes: the paths where detection worked but
// fast-forwarding was declined or disarmed still produce a typed reason:
// detection-only runs, runs whose orbit closes on the final iteration,
// and sampler-vetoed runs.
func TestWhyNotDeclinedModes(t *testing.T) {
	cfg := steadyCfg(12)
	cfg.Extrapolate = false
	res, err := nas.Run(bt.New, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SteadyAt == 0 {
		t.Fatalf("detection-only run never detected: %+v", res)
	}
	w := res.FastPath.WhyNot
	if w == nil || w.Reason != nas.WhyNotDetectionOnly {
		t.Fatalf("detection-only WhyNot = %+v, want reason %q", w, nas.WhyNotDetectionOnly)
	}
	if res.ExtrapolatedIters != 0 {
		t.Errorf("detection-only run extrapolated %d iterations", res.ExtrapolatedIters)
	}

	scfg := steadyCfg(12)
	scfg.Metrics = metrics.NewSampler(metrics.Options{})
	res, err = nas.Run(bt.New, scfg)
	if err != nil {
		t.Fatal(err)
	}
	w = res.FastPath.WhyNot
	if w == nil || w.Reason != nas.WhyNotSampler {
		t.Fatalf("sampler-vetoed WhyNot = %+v, want reason %q", w, nas.WhyNotSampler)
	}
}

// TestWhyNotEngagedIsNil: when the fast path engages the report carries
// no excuse.
func TestWhyNotEngagedIsNil(t *testing.T) {
	res, err := nas.Run(bt.New, steadyCfg(12))
	if err != nil {
		t.Fatal(err)
	}
	if res.ExtrapolatedIters == 0 {
		t.Fatalf("BT/12 did not extrapolate: %+v", res)
	}
	if res.SteadyAt == 0 || res.FastPath.WhyNot != nil {
		t.Errorf("engaged run: SteadyAt %d, WhyNot %+v; want detected with nil WhyNot", res.SteadyAt, res.FastPath.WhyNot)
	}
}

// TestWhyNotStrings: every reason renders a non-empty, distinct sentence
// (cmd/nasbench prints these verbatim).
func TestWhyNotStrings(t *testing.T) {
	reasons := []nas.WhyNotReason{
		nas.WhyNotSampler, nas.WhyNotDetectionOnly, nas.WhyNotNoTail,
		nas.WhyNotLoopTooShort, nas.WhyNotPerturbed,
		nas.WhyNotHomesMoving, nas.WhyNotAperiodic,
	}
	seen := map[string]bool{}
	for _, r := range reasons {
		s := (&nas.WhyNot{Reason: r, BestStreak: 3, NeededStreak: 4,
			FirstDivergent: "cpu0_clock", Observed: 5, HomeMoves: 6, PerturbIter: 7}).String()
		if s == "" {
			t.Errorf("reason %q renders empty", r)
		}
		if seen[s] {
			t.Errorf("reason %q renders a duplicate sentence %q", r, s)
		}
		seen[s] = true
	}
	if (*nas.WhyNot)(nil).String() != "" {
		t.Error("nil WhyNot should render empty")
	}
}
