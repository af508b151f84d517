package nas_test

import (
	"reflect"
	"testing"

	"upmgo/internal/kmig"
	"upmgo/internal/machine"
	"upmgo/internal/nas"
	"upmgo/internal/nas/bt"
	"upmgo/internal/nas/cg"
	"upmgo/internal/nas/ft"
	"upmgo/internal/nas/lu"
	"upmgo/internal/nas/mg"
	"upmgo/internal/nas/sp"
	"upmgo/internal/omp"
	"upmgo/internal/vm"
)

// replayMatchesRun replays cfg from s twice, as it is and with the
// steady-state detector extrapolating, and requires each replayed Result
// to equal Run's of the same config, naming the first divergent field
// when it does not. The steady leg's detector reads the cache counters
// the log keeps, so it must fire at the same iteration with the same
// deltas, or decline for the same reason. It returns the steady replay.
func replayMatchesRun(t *testing.T, s *nas.Stream, build nas.Builder, cfg nas.Config) nas.Result {
	t.Helper()
	var got nas.Result
	for _, steady := range []bool{false, true} {
		cfg := cfg
		cfg.SteadyState, cfg.Extrapolate = steady, steady
		want, err := nas.Run(build, cfg)
		if err != nil {
			t.Fatalf("%s steady=%v run: %v", cfg.Label(), steady, err)
		}
		if got, err = s.Replay(cfg); err != nil {
			t.Fatalf("%s steady=%v replay: %v", cfg.Label(), steady, err)
		}
		if d := nas.Diverge(want, got); d != "" {
			t.Errorf("%s steady=%v: replay diverges from Run at %s", cfg.Label(), steady, d)
		}
		if !reflect.DeepEqual(want.FastPath.WhyNot, got.FastPath.WhyNot) {
			t.Errorf("%s steady=%v: replay WhyNot %v, Run %v", cfg.Label(), steady, got.FastPath.WhyNot, want.FastPath.WhyNot)
		}
		if !got.Verified {
			t.Errorf("%s steady=%v: replay not verified: %v", cfg.Label(), steady, got.VerifyErr)
		}
	}
	return got
}

func record(t *testing.T, build nas.Builder, cfg nas.Config) *nas.Stream {
	t.Helper()
	s, err := nas.RecordStream(build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Declined != "" {
		t.Fatalf("recording declined: %s", s.Declined)
	}
	return s
}

// TestReplayMatchesRun is the replay contract: for every benchmark the
// sweeps replay, one recording replays every placement and engine
// bit-identically to Run on the real kernel.
func TestReplayMatchesRun(t *testing.T) {
	engines := []func(c *nas.Config){
		func(c *nas.Config) {},
		func(c *nas.Config) { c.KernelMig = true },
		func(c *nas.Config) { c.UPM = nas.UPMDistribute },
	}
	for _, b := range []struct {
		name  string
		build nas.Builder
	}{{"BT", bt.New}, {"SP", sp.New}, {"CG", cg.New}, {"MG", mg.New}, {"FT", ft.New}} {
		t.Run(b.name, func(t *testing.T) {
			base := nas.Config{Class: nas.ClassS, Iterations: 12}
			s := record(t, b.build, base)
			extrapolated := 0
			for _, p := range vm.Policies {
				for _, set := range engines {
					cfg := base
					cfg.Placement = p
					set(&cfg)
					if r := replayMatchesRun(t, s, b.build, cfg); r.ExtrapolatedIters > 0 {
						extrapolated++
					}
				}
			}
			if b.name == "BT" || b.name == "SP" {
				cfg := base
				cfg.Placement, cfg.UPM = vm.WorstCase, nas.UPMRecRep
				replayMatchesRun(t, s, b.build, cfg)
			}
			if extrapolated == 0 {
				t.Errorf("%s: no steady replay extrapolated", b.name)
			}
		})
	}
}

// counterKernel snapshots its machine's full counter vector, the one the
// steady-state detector reads, at the end of every Step.
type counterKernel struct {
	nas.Kernel
	m     *machine.Machine
	snaps *[][]int64
}

func (k counterKernel) Step(t *omp.Team, h *nas.Hooks) {
	k.Kernel.Step(t, h)
	*k.snaps = append(*k.snaps, k.m.AppendCounters(nil))
}

// stepCounters runs cfg on build and returns the counter vector at the end
// of every Step, cold start included.
func stepCounters(t *testing.T, build nas.Builder, cfg nas.Config) [][]int64 {
	t.Helper()
	var snaps [][]int64
	_, err := nas.Run(func(m *machine.Machine, class nas.Class, scale int, seed uint64) nas.Kernel {
		return counterKernel{build(m, class, scale, seed), m, &snaps}
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return snaps
}

// TestReplayCountersMatchRun: at the end of every Step, where the
// steady-state detector observes, a replay's machine reports the counter
// vector of the simulation — cache hits, misses and ticks included,
// although the replay never touches a cache.
func TestReplayCountersMatchRun(t *testing.T) {
	base := nas.Config{Class: nas.ClassS, Iterations: 6}
	s := record(t, bt.New, base)
	for _, p := range []vm.Policy{vm.FirstTouch, vm.WorstCase} {
		for _, km := range []bool{false, true} {
			cfg := base
			cfg.Placement, cfg.KernelMig = p, km
			want := stepCounters(t, bt.New, cfg)
			got := stepCounters(t, s.ReplayBuilder(), cfg)
			if len(got) != len(want) {
				t.Fatalf("%s: replay took %d steps, Run %d", cfg.Label(), len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(want[i], got[i]) {
					t.Errorf("%s step %d: replay counters differ from Run's", cfg.Label(), i)
				}
			}
		}
	}
}

// TestReplayShapes covers the stream fields the engine matrix leaves at
// their defaults: a scheduler perturbation, a team narrower than the
// machine, and a hierarchical machine; and a kernel-migration cell whose
// steady replay proves a period-2 orbit (TestSteadyPeriod2EngineCadence's
// config).
func TestReplayShapes(t *testing.T) {
	for _, c := range []struct {
		name  string
		build nas.Builder
		cfg   nas.Config
	}{
		{"perturb", bt.New, nas.Config{Class: nas.ClassS, PerturbAt: 2, Iterations: 5}},
		{"threads", cg.New, nas.Config{Class: nas.ClassS, Threads: 3}},
		{"hier64", mg.New, nas.Config{Class: nas.ClassS, Topo: "hier64", Iterations: 3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := record(t, c.build, c.cfg)
			for _, p := range []vm.Policy{vm.RoundRobin, vm.WorstCase} {
				cfg := c.cfg
				cfg.Placement, cfg.UPM = p, nas.UPMDistribute
				replayMatchesRun(t, s, c.build, cfg)
				cfg.UPM, cfg.KernelMig = nas.UPMOff, true
				replayMatchesRun(t, s, c.build, cfg)
			}
		})
	}
	t.Run("periodk", func(t *testing.T) {
		build := synthBuilder(0, 0)
		cfg := nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch, Threads: 1, Iterations: 24}
		s := record(t, build, cfg)
		cfg.KernelMig = true
		cfg.Kmig = kmig.Config{ScanEvery: 2, DecayEvery: -1, MinScanPS: -1}
		if r := replayMatchesRun(t, s, build, cfg); r.SteadyPeriod != 2 {
			t.Errorf("steady replay proved period %d at iteration %d, want period 2", r.SteadyPeriod, r.SteadyAt)
		}
	})
}

// TestRecordStreamDeclines: LU's pipelined sweeps synchronise through an
// EventSet, whose hand-off the replay cannot reproduce, so the recording
// declines with that reason — and its own Result is still the full run.
func TestRecordStreamDeclines(t *testing.T) {
	cfg := nas.Config{Class: nas.ClassS}
	s, err := nas.RecordStream(lu.New, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Declined != "EventSet" {
		t.Fatalf("Declined = %q, want EventSet", s.Declined)
	}
	want, err := nas.Run(lu.New, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := nas.Diverge(want, s.Result); d != "" {
		t.Errorf("declined recording's Result diverges from Run at %s", d)
	}
	if _, err := s.Replay(cfg); err == nil {
		t.Error("replaying a declined stream succeeded")
	}
}
