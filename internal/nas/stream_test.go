package nas_test

import (
	"reflect"
	"strings"
	"sync"
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
	"upmgo/internal/trace"
	"upmgo/internal/vm"
)

// replayMatchesRun replays cfg from s twice, as it is and with the
// steady-state detector extrapolating, and requires each replayed Result
// to equal Run's of the same config, naming the first divergent field
// when it does not. The steady leg's detector reads the cache counters
// the log keeps, so it must fire at the same iteration with the same
// deltas, or decline for the same reason, which each run leaves in its
// HostStages sink. It returns the steady replay and its WhyNot.
func replayMatchesRun(t *testing.T, s *nas.Stream, build nas.Builder, cfg nas.Config) (nas.Result, *nas.WhyNot) {
	t.Helper()
	var got nas.Result
	var why *nas.WhyNot
	for _, steady := range []bool{false, true} {
		cfg := cfg
		cfg.SteadyState, cfg.Extrapolate = steady, steady
		var wantHS, gotHS nas.HostStages
		cfg.HostStages = &wantHS
		want, err := nas.Run(build, cfg)
		if err != nil {
			t.Fatalf("%s steady=%v run: %v", cfg.Label(), steady, err)
		}
		cfg.HostStages = &gotHS
		if got, err = s.Replay(cfg); err != nil {
			t.Fatalf("%s steady=%v replay: %v", cfg.Label(), steady, err)
		}
		if d := nas.Diverge(want, got); d != "" {
			t.Errorf("%s steady=%v: replay diverges from Run at %s", cfg.Label(), steady, d)
		}
		if !reflect.DeepEqual(wantHS.WhyNot, gotHS.WhyNot) {
			t.Errorf("%s steady=%v: replay WhyNot %v, Run %v", cfg.Label(), steady, gotHS.WhyNot, wantHS.WhyNot)
		}
		if !got.Verified {
			t.Errorf("%s steady=%v: replay not verified: %v", cfg.Label(), steady, got.VerifyErr)
		}
		why = gotHS.WhyNot
	}
	return got, why
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
					if r, _ := replayMatchesRun(t, s, b.build, cfg); r.ExtrapolatedIters > 0 {
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
	*k.snaps = append(*k.snaps, k.m.CounterTable(nil).Snapshot(nil))
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

// TestReplayConcurrentBlock: concurrent replays of one compressed
// stream share its decoded block, each through its own reader, and each
// equals Run of its cell. Under the race detector this shows the block
// is only read.
func TestReplayConcurrentBlock(t *testing.T) {
	base := nas.Config{Class: nas.ClassS, Iterations: 12}
	s := record(t, bt.New, base)
	if z := s.Size(); z.Repeat == 0 || z.DecodedBytes == 0 {
		t.Fatalf("stream size %+v, want a decoded block", z)
	}
	var wg sync.WaitGroup
	got := make([]nas.Result, len(vm.Policies))
	for i, p := range vm.Policies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := base
			cfg.Placement, cfg.KernelMig = p, true
			var err error
			if got[i], err = s.Replay(cfg); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, p := range vm.Policies {
		cfg := base
		cfg.Placement, cfg.KernelMig = p, true
		want, err := nas.Run(bt.New, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d := nas.Diverge(want, got[i]); d != "" {
			t.Errorf("%s: concurrent replay diverges from Run at %s", cfg.Label(), d)
		}
	}
}

// TestReplayCountersMatchRun: at the end of every Step, where the
// steady-state detector observes, a replay's machine reports the counter
// vector of the simulation, although the replay never touches a cache.
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
// machine, and a hierarchical machine; and cells on orbits longer than
// one iteration (TestSteadyPeriod2EngineCadence's kernel-migration cell
// and TestSteadyPeriod3Compute's kernel), which the steady replay must
// refuse as Run does.
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
		cfg := nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch, Iterations: 24}
		period2 := cfg
		period2.KernelMig = true
		period2.Kmig = kmig.Config{ScanEvery: 2, DecayEvery: -1, MinScanPS: -1}
		for _, c := range []struct {
			build nas.Builder
			cfg   nas.Config
			why   nas.WhyNotReason
		}{
			{synthBuilder(0, 0), period2, nas.WhyNotHomesMoving},
			{synthBuilder(0, 3), cfg, nas.WhyNotAperiodic},
		} {
			r, w := replayMatchesRun(t, record(t, c.build, cfg), c.build, c.cfg)
			if r.SteadyAt != 0 || w == nil || w.Reason != c.why {
				t.Errorf("%s: steady replay fired at iteration %d (WhyNot %v), want no orbit, reason %q",
					c.cfg.Label(), r.SteadyAt, w, c.why)
			}
		}
	})
}

// TestRecordStreamDeclines: LU's pipelined sweeps synchronise through an
// EventSet, whose hand-off the replay cannot reproduce, so the recording
// declines with that reason and holds nothing to replay.
func TestRecordStreamDeclines(t *testing.T) {
	cfg := nas.Config{Class: nas.ClassS}
	s, err := nas.RecordStream(lu.New, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Declined != "EventSet" {
		t.Fatalf("Declined = %q, want EventSet", s.Declined)
	}
	if _, err := s.Replay(cfg); err == nil {
		t.Error("replaying a declined stream succeeded")
	}
}

// TestReplayRefusesAnotherStream: a stream answers exactly the configs
// that share its stream fingerprint, whatever their placement and
// engines. Another stream's config, or one that has none, is refused
// before it replays anything.
func TestReplayRefusesAnotherStream(t *testing.T) {
	cfg := nas.Config{Class: nas.ClassS, Iterations: 2}
	s := record(t, cg.New, cfg)
	same := cfg
	same.Placement, same.UPM = vm.WorstCase, nas.UPMDistribute
	if _, err := s.Replay(same); err != nil {
		t.Errorf("%s: replaying its own stream: %v", same.Label(), err)
	}
	for _, other := range []nas.Config{
		{Class: nas.ClassS, Iterations: 3},
		{Class: nas.ClassS, Iterations: 2, Seed: 1},
		{Class: nas.ClassS, Iterations: 2, Tracer: trace.NewRecorder()},
	} {
		if _, err := s.ReplayUnjudged(other, nil); err == nil || !strings.Contains(err.Error(), "does not match") {
			t.Errorf("%+v: replayed another stream (err %v)", other, err)
		}
	}
}

// decliningKernel counts its Step calls and declines the recording at
// the end of call declineAt (call 0 is the cold start).
type decliningKernel struct {
	nas.Kernel
	m         *machine.Machine
	declineAt int
	calls     *int
}

func (k decliningKernel) Step(t *omp.Team, h *nas.Hooks) {
	k.Kernel.Step(t, h)
	if *k.calls == k.declineAt {
		k.m.Recorder().Decline("synthetic")
	}
	*k.calls++
}

// TestRecordStreamDeclinedStopsStepping: once the recorder declines, the
// recording has nothing left to record, so it calls the kernel's Step no
// more.
func TestRecordStreamDeclinedStopsStepping(t *testing.T) {
	calls := 0
	build := func(m *machine.Machine, class nas.Class, scale int, seed uint64) nas.Kernel {
		return decliningKernel{synthBuilder(0, 0)(m, class, scale, seed), m, 3, &calls}
	}
	s, err := nas.RecordStream(build, nas.Config{Class: nas.ClassS, Threads: 2, Iterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	if s.Declined != "synthetic" {
		t.Fatalf("Declined = %q, want synthetic", s.Declined)
	}
	if calls != 4 {
		t.Errorf("the kernel's Step ran %d times, want 4: the cold start and timed steps 1 to 3", calls)
	}
}
