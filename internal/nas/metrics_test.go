package nas_test

import (
	"reflect"
	"strings"
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

// TestMetricsOffOnEquivalence is the metrics layer's tentpole invariant:
// attaching a Sampler observes the simulation but never advances a
// clock, so a sampled run's every number — virtual times, engine stats,
// hardware counters — is bit-identical to the same config unsampled,
// for all five benchmarks under both migration engines. Threads 1 for
// the same reason as TestTracingOffOnEquivalence: only there is an
// individual run exactly reproducible across two separate executions.
func TestMetricsOffOnEquivalence(t *testing.T) {
	builders := []struct {
		name  string
		build nas.Builder
	}{
		{"BT", bt.New}, {"SP", sp.New}, {"CG", cg.New},
		{"MG", mg.New}, {"FT", ft.New},
	}
	engines := []struct {
		name string
		cfg  func(*nas.Config)
	}{
		{"kmig", func(c *nas.Config) { c.KernelMig = true }},
		{"upmlib", func(c *nas.Config) { c.UPM = nas.UPMDistribute }},
	}
	for _, b := range builders {
		for _, eng := range engines {
			t.Run(b.name+"/"+eng.name, func(t *testing.T) {
				cfg := nas.Config{
					Class:     nas.ClassS,
					Placement: vm.WorstCase,
				}
				eng.cfg(&cfg)
				plain, err := nas.Run(b.build, cfg)
				if err != nil {
					t.Fatal(err)
				}
				s := metrics.NewSampler(metrics.Options{Heatmap: true})
				cfg.Metrics = s
				sampled, err := nas.Run(b.build, cfg)
				if err != nil {
					t.Fatal(err)
				}

				if plain.TotalPS != sampled.TotalPS {
					t.Errorf("TotalPS: unsampled %d, sampled %d", plain.TotalPS, sampled.TotalPS)
				}
				if plain.ColdPS != sampled.ColdPS {
					t.Errorf("ColdPS: unsampled %d, sampled %d", plain.ColdPS, sampled.ColdPS)
				}
				if !reflect.DeepEqual(plain.IterPS, sampled.IterPS) {
					t.Errorf("IterPS diverge:\n unsampled %v\n sampled   %v", plain.IterPS, sampled.IterPS)
				}
				if !reflect.DeepEqual(plain.PhasePS, sampled.PhasePS) {
					t.Errorf("PhasePS diverge:\n unsampled %v\n sampled   %v", plain.PhasePS, sampled.PhasePS)
				}
				if plain.UPM != sampled.UPM {
					t.Errorf("UPM stats diverge:\n unsampled %+v\n sampled   %+v", plain.UPM, sampled.UPM)
				}
				if plain.KmigMoves != sampled.KmigMoves || plain.KmigCost != sampled.KmigCost {
					t.Errorf("kmig stats diverge: unsampled (%d, %d), sampled (%d, %d)",
						plain.KmigMoves, plain.KmigCost, sampled.KmigMoves, sampled.KmigCost)
				}
				if plain.Mach != sampled.Mach {
					t.Errorf("machine stats diverge:\n unsampled %+v\n sampled   %+v", plain.Mach, sampled.Mach)
				}
				if plain.Verified != sampled.Verified {
					t.Errorf("Verified: unsampled %v, sampled %v", plain.Verified, sampled.Verified)
				}

				assertSeries(t, s.Series(), sampled)
			})
		}
	}
}

// assertSeries checks the sampler's output against the run it observed:
// the sample schedule (baseline + one per iteration + phase samples for
// kernels with a marked phase), per-iteration durations matching the
// driver's, and engine tallies matching the run's final statistics.
func assertSeries(t *testing.T, se metrics.Series, res nas.Result) {
	t.Helper()
	var iters, phases, baselines []metrics.Sample
	for _, sm := range se.Samples {
		switch sm.Kind {
		case "iter":
			iters = append(iters, sm)
		case "phase":
			phases = append(phases, sm)
		case "baseline":
			baselines = append(baselines, sm)
		}
	}
	if len(baselines) != 1 {
		t.Errorf("got %d baseline samples, want 1", len(baselines))
	}
	if len(iters) != len(res.IterPS) {
		t.Fatalf("got %d iteration samples, want %d", len(iters), len(res.IterPS))
	}
	hasPhase := false
	for _, ps := range res.PhasePS {
		if ps > 0 {
			hasPhase = true
		}
	}
	if hasPhase && len(phases) != len(res.IterPS) {
		t.Errorf("got %d phase samples, want one per iteration (%d)", len(phases), len(res.IterPS))
	}
	if !hasPhase && len(phases) != 0 {
		t.Errorf("got %d phase samples for a kernel without a marked phase", len(phases))
	}
	for i, sm := range iters {
		if sm.Step != i+1 {
			t.Errorf("iteration sample %d has step %d", i, sm.Step)
		}
		if sm.IterPS != res.IterPS[i] {
			t.Errorf("step %d: sampled IterPS %d, driver recorded %d", sm.Step, sm.IterPS, res.IterPS[i])
		}
		var resident int64
		for _, v := range sm.Residency {
			resident += v
		}
		if resident == 0 {
			t.Errorf("step %d: no resident pages sampled", sm.Step)
		}
		var hot int64
		for _, v := range sm.HotHomes {
			hot += v
		}
		if int(hot) != res.PagesTotal {
			t.Errorf("step %d: %d hot homes, want %d", sm.Step, hot, res.PagesTotal)
		}
	}
	last := iters[len(iters)-1]
	if last.UPMMoves != res.UPM.Migrations {
		t.Errorf("sampled UPM moves %d, run reported %d", last.UPMMoves, res.UPM.Migrations)
	}
	if last.KmigMoves != res.KmigMoves {
		t.Errorf("sampled kmig moves %d, run reported %d", last.KmigMoves, res.KmigMoves)
	}
	if last.MachLocal != res.Mach.LocalMem || last.MachRemote != res.Mach.RemoteMem {
		t.Errorf("sampled machine split (%d, %d), run reported (%d, %d)",
			last.MachLocal, last.MachRemote, res.Mach.LocalMem, res.Mach.RemoteMem)
	}
	if last.Barriers == 0 {
		t.Error("no barriers tallied over the timed loop")
	}
	if se.HotPages != res.PagesTotal {
		t.Errorf("series hot pages %d, run reported %d", se.HotPages, res.PagesTotal)
	}
	if len(se.Heat) != len(res.IterPS) {
		t.Fatalf("got %d heatmaps, want one per iteration (%d)", len(se.Heat), len(res.IterPS))
	}
	for _, h := range se.Heat {
		if h.Pages != se.HotPages || h.Nodes != se.Nodes || len(h.Counts) != h.Pages*h.Nodes {
			t.Errorf("heatmap step %d has shape (%d×%d, %d counts), want (%d×%d)",
				h.Step, h.Pages, h.Nodes, len(h.Counts), se.HotPages, se.Nodes)
		}
	}
}

// TestMetricsConfigUnfingerprintable: a sampled config must never be
// memoized or snapshotted — the cache would serve stale metrics and a
// shared prefix would feed one sampler from many forks.
func TestMetricsConfigUnfingerprintable(t *testing.T) {
	cfg := nas.Config{Class: nas.ClassS, Metrics: metrics.NewSampler(metrics.Options{})}
	if _, ok := cfg.Fingerprint(); ok {
		t.Error("Fingerprint accepted a sampled config")
	}
	if _, ok := cfg.PrefixFingerprint(); ok {
		t.Error("PrefixFingerprint accepted a sampled config")
	}
	if _, err := nas.RunPrefix(bt.New, cfg); err == nil || !strings.Contains(err.Error(), "Metrics") {
		t.Errorf("RunPrefix on a sampled config: got %v, want a Metrics rejection", err)
	}
}

// TestMetricsWithTracerTee: a run with both a Tracer and a Sampler
// attached feeds both — the sampler does not displace the tracer.
func TestMetricsWithTracerTee(t *testing.T) {
	s := metrics.NewSampler(metrics.Options{})
	cfg := nas.Config{
		Class:     nas.ClassS,
		Placement: vm.WorstCase,
		UPM:       nas.UPMDistribute,
		Metrics:   s,
	}
	rec := trace.NewRecorder()
	cfg.Tracer = rec
	res, err := nas.Run(ft.New, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Error("tee dropped the recorder's events")
	}
	se := s.Series()
	var iters int
	for _, sm := range se.Samples {
		if sm.Kind == "iter" {
			iters++
		}
	}
	if iters != len(res.IterPS) {
		t.Errorf("tee'd sampler recorded %d iteration samples, want %d", iters, len(res.IterPS))
	}
}
