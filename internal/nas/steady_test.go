package nas_test

import (
	"reflect"
	"testing"

	"upmgo/internal/metrics"
	"upmgo/internal/nas"
	"upmgo/internal/nas/bt"
	"upmgo/internal/nas/cg"
	"upmgo/internal/nas/ft"
	"upmgo/internal/nas/mg"
	"upmgo/internal/nas/sp"
	"upmgo/internal/trace"
	"upmgo/internal/vm"
)

// maskSteady zeroes the detection-metadata fields extrapolation is
// allowed to set; every other Result field must be bit-identical between
// an extrapolated and a fully simulated run.
func maskSteady(r nas.Result) nas.Result {
	r.SteadyAt = 0
	r.ExtrapolatedIters = 0
	return r
}

// TestSteadyExtrapolationBitIdentity is the golden contract of the
// steady-state fast-forward: for every benchmark, placement and engine,
// a run that detects the steady state and extrapolates the tail must
// report exactly the virtual times, per-iteration spans, hardware
// counters, engine statistics and verification outcome of the run that
// simulates every iteration.
func TestSteadyExtrapolationBitIdentity(t *testing.T) {
	builders := []struct {
		name  string
		build nas.Builder
	}{
		{"BT", bt.New}, {"SP", sp.New}, {"CG", cg.New},
		{"MG", mg.New}, {"FT", ft.New},
	}
	engines := []struct {
		name     string
		phaseful bool // requires a phase change (record–replay)
		set      func(c *nas.Config)
	}{
		{"plain", false, func(c *nas.Config) {}},
		{"kmig", false, func(c *nas.Config) { c.KernelMig = true }},
		{"upmlib", false, func(c *nas.Config) { c.UPM = nas.UPMDistribute }},
		{"recrep", true, func(c *nas.Config) { c.UPM = nas.UPMRecRep }},
	}
	hasPhase := map[string]bool{"BT": true, "SP": true}
	for _, b := range builders {
		for _, p := range []vm.Policy{vm.FirstTouch, vm.WorstCase} {
			t.Run(b.name+"/"+p.String(), func(t *testing.T) {
				for _, eng := range engines {
					if eng.phaseful && !hasPhase[b.name] {
						continue
					}
					// The one-thread team stays for the detection check:
					// at the Class S machine's full width the kernel
					// engine's homes never stop moving (homes_moving in
					// every solver, at 12 and at 24 iterations), so no
					// kmig cell would reach a steady state to check.
					cfg := nas.Config{Class: nas.ClassS, Placement: p, Threads: 1, Iterations: 12}
					eng.set(&cfg)
					plain, err := nas.Run(b.build, cfg)
					if err != nil {
						t.Fatalf("%s plain: %v", eng.name, err)
					}
					scfg := cfg
					scfg.SteadyState, scfg.Extrapolate = true, true
					steady, err := nas.Run(b.build, scfg)
					if err != nil {
						t.Fatalf("%s steady: %v", eng.name, err)
					}
					if !reflect.DeepEqual(plain, maskSteady(steady)) {
						t.Errorf("%s: extrapolated run diverges from simulated:\n plain  %+v\n steady %+v",
							eng.name, plain, steady)
					}
					// The solvers with deactivating or quiescent engines
					// must actually reach steady state well before the
					// end. Two cells are legitimately exempt: record–
					// replay keeps moving pages every iteration (its
					// orbit can exceed the window at this tiny class),
					// and FT under the kernel engine — kmig's time-spaced
					// scans beat aperiodically against FT's short Class S
					// iterations, so its counter rows never freeze and
					// the conservative detector rightly refuses.
					exempt := eng.phaseful || (b.name == "FT" && eng.name == "kmig")
					if steady.SteadyAt == 0 && !exempt {
						t.Errorf("%s: steady state never detected in %d iterations", eng.name, len(steady.IterPS))
					}
					if steady.SteadyAt != 0 && steady.ExtrapolatedIters != len(plain.IterPS)-steady.SteadyAt {
						t.Errorf("%s: extrapolated %d iters, want %d (steady at %d of %d)",
							eng.name, steady.ExtrapolatedIters, len(plain.IterPS)-steady.SteadyAt,
							steady.SteadyAt, len(plain.IterPS))
					}
				}
			})
		}
	}
}

// TestSteadyDetectionOnly: with Extrapolate off the detector observes and
// records but the run still simulates every iteration — bit-identical to
// a plain run in everything but SteadyAt.
func TestSteadyDetectionOnly(t *testing.T) {
	cfg := nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch, Iterations: 10}
	plain, err := nas.Run(sp.New, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := cfg
	dcfg.SteadyState = true
	det, err := nas.Run(sp.New, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if det.SteadyAt == 0 {
		t.Fatal("detection-only run never detected the steady state")
	}
	if det.ExtrapolatedIters != 0 {
		t.Fatalf("detection-only run extrapolated %d iterations", det.ExtrapolatedIters)
	}
	if !reflect.DeepEqual(plain, maskSteady(det)) {
		t.Errorf("detection-only run diverges from plain:\n plain %+v\n det   %+v", plain, det)
	}
}

// TestSteadyRespectsPerturbation: the detector must not extrapolate
// across the scheduler perturbation — observation starts after it, so a
// detected steady state always lies beyond PerturbAt and the perturbed
// run's result stays bit-identical to its fully simulated twin.
func TestSteadyRespectsPerturbation(t *testing.T) {
	cfg := nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch,
		Iterations: 14, PerturbAt: 4, UPM: nas.UPMDistribute}
	plain, err := nas.Run(bt.New, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := cfg
	scfg.SteadyState, scfg.Extrapolate = true, true
	steady, err := nas.Run(bt.New, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if steady.SteadyAt != 0 && steady.SteadyAt <= cfg.PerturbAt {
		t.Fatalf("steady state claimed at iteration %d, before the perturbation at %d",
			steady.SteadyAt, cfg.PerturbAt)
	}
	if steady.SteadyAt == 0 {
		t.Fatal("steady state never detected after the perturbation")
	}
	if !reflect.DeepEqual(plain, maskSteady(steady)) {
		t.Errorf("perturbed extrapolation diverges:\n plain  %+v\n steady %+v", plain, steady)
	}
}

// TestSteadyDisabledBySampler: a metrics sampler needs every iteration
// simulated, so it switches the detector off entirely.
func TestSteadyDisabledBySampler(t *testing.T) {
	s := metrics.NewSampler(metrics.Options{})
	cfg := nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch,
		Iterations: 10, Metrics: s, SteadyState: true, Extrapolate: true}
	res, err := nas.Run(sp.New, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SteadyAt != 0 || res.ExtrapolatedIters != 0 {
		t.Fatalf("sampled run used the detector: steadyAt=%d extrapolated=%d",
			res.SteadyAt, res.ExtrapolatedIters)
	}
}

// TestSteadyTraceSummary: an extrapolated run's trace carries the
// steady_state and extrapolate events, and the summary's sum contract
// extends across the extrapolated tail — TotalPS tiles into phases,
// serial time and the extrapolated span exactly.
func TestSteadyTraceSummary(t *testing.T) {
	rec := trace.NewRecorder()
	cfg := nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch,
		Iterations: 12, Tracer: rec, SteadyState: true, Extrapolate: true}
	res, err := nas.Run(bt.New, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExtrapolatedIters == 0 {
		t.Fatal("run did not extrapolate; trace contract untestable")
	}
	var sawSteady, sawExtrap bool
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.EvSteadyState:
			sawSteady = true
			if ev.Arg0 != int64(res.SteadyAt) {
				t.Errorf("steady_state event at iteration %d, result says %d", ev.Arg0, res.SteadyAt)
			}
		case trace.EvExtrapolate:
			sawExtrap = true
			if ev.Arg0 != int64(res.ExtrapolatedIters) {
				t.Errorf("extrapolate event covers %d iters, result says %d", ev.Arg0, res.ExtrapolatedIters)
			}
		}
	}
	if !sawSteady || !sawExtrap {
		t.Fatalf("missing events: steady_state=%v extrapolate=%v", sawSteady, sawExtrap)
	}
	s := trace.Summarize(rec.Events())
	if s.ExtrapolatedIters != res.ExtrapolatedIters {
		t.Errorf("summary extrapolated %d iters, result %d", s.ExtrapolatedIters, res.ExtrapolatedIters)
	}
	var phasePS int64
	for _, p := range s.Phases {
		phasePS += p.TimePS
	}
	if got := phasePS + s.SerialPS + s.ExtrapolatedPS; got != s.TotalPS {
		t.Errorf("sum contract broken: phases %d + serial %d + extrapolated %d = %d != total %d",
			phasePS, s.SerialPS, s.ExtrapolatedPS, got, s.TotalPS)
	}
	var iterPS int64
	for _, it := range s.PerIter {
		iterPS += it.TimePS
	}
	if got := iterPS + s.ExtrapolatedPS; got != s.TotalPS {
		t.Errorf("per-iter contract broken: iters %d + extrapolated %d = %d != total %d",
			iterPS, s.ExtrapolatedPS, got, s.TotalPS)
	}
	if s.TotalPS != res.TotalPS {
		t.Errorf("summary total %d != result total %d", s.TotalPS, res.TotalPS)
	}
	if s.Iterations != res.SteadyAt {
		t.Errorf("summary simulated %d iterations, expected %d (steady point)", s.Iterations, res.SteadyAt)
	}
}

// TestSteadyForkBitIdentity: extrapolation composes with the snapshot
// subsystem — a forked steady run equals a from-scratch steady run.
func TestSteadyForkBitIdentity(t *testing.T) {
	base := nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch, Iterations: 12}
	prefix, err := nas.RunPrefix(cg.New, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.SteadyState, cfg.Extrapolate = true, true
	cfg.KernelMig = true
	scratch, err := nas.Run(cg.New, cfg)
	if err != nil {
		t.Fatal(err)
	}
	forked, err := prefix.RunFromSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scratch, forked) {
		t.Errorf("steady fork diverges from scratch at %s", nas.Diverge(scratch, forked))
	}
}

// TestSteadySkipVerifyTail: with SkipVerify nothing ever observes the
// kernel's final numerics, so an extrapolating run drops the free-run
// tail outright — and still matches the fully simulated run bit for bit.
func TestSteadySkipVerifyTail(t *testing.T) {
	cfg := nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch,
		Iterations: 12, SkipVerify: true}
	plain, err := nas.Run(bt.New, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := cfg
	scfg.SteadyState, scfg.Extrapolate = true, true
	steady, err := nas.Run(bt.New, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if steady.SteadyAt == 0 || steady.ExtrapolatedIters == 0 {
		t.Fatalf("run did not extrapolate: %+v", steady)
	}
	if !reflect.DeepEqual(plain, maskSteady(steady)) {
		t.Errorf("skip-verify extrapolation diverges:\n plain  %+v\n steady %+v", plain, steady)
	}
}

// TestSteadyFingerprintCanonicalisation: the steady knobs canonicalise —
// window 0 is the default, and with SteadyState off the other fields are
// dead — so equivalent configs share one cache entry while a steady and
// a plain run (whose SteadyAt fields differ) never collide.
func TestSteadyFingerprintCanonicalisation(t *testing.T) {
	base := nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch}
	a := base
	a.SteadyState, a.SteadyWindow = true, 0
	b := base
	b.SteadyState, b.SteadyWindow = true, 3
	fa, ok := a.Fingerprint()
	if !ok {
		t.Fatal("fingerprint failed")
	}
	fb, _ := b.Fingerprint()
	if fa != fb {
		t.Errorf("window 0 and default window fingerprints differ:\n %q\n %q", fa, fb)
	}
	c := base
	c.Extrapolate, c.SteadyWindow = true, 5 // dead without SteadyState
	fc, _ := c.Fingerprint()
	fplain, _ := base.Fingerprint()
	if fc != fplain {
		t.Errorf("dead steady fields changed the fingerprint:\n %q\n %q", fc, fplain)
	}
	fsteady, _ := a.Fingerprint()
	if fsteady == fplain {
		t.Error("steady and plain configs share a fingerprint; SteadyAt would go stale in the cache")
	}
}
