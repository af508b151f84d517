package nas_test

import (
	"testing"

	"upmgo/internal/nas"
	"upmgo/internal/nas/bt"
	"upmgo/internal/nas/cg"
	"upmgo/internal/nas/ft"
	"upmgo/internal/nas/lu"
	"upmgo/internal/nas/mg"
	"upmgo/internal/nas/sp"
	"upmgo/internal/vm"
)

// replayMatchesRun replays cfg from s and requires the replayed Result
// to equal Run's, naming the first divergent field when it does not.
func replayMatchesRun(t *testing.T, s *nas.Stream, build nas.Builder, cfg nas.Config) {
	t.Helper()
	want, err := nas.Run(build, cfg)
	if err != nil {
		t.Fatalf("%s run: %v", cfg.Label(), err)
	}
	got, err := s.Replay(cfg)
	if err != nil {
		t.Fatalf("%s replay: %v", cfg.Label(), err)
	}
	if d := nas.Diverge(want, got); d != "" {
		t.Errorf("%s: replay diverges from Run at %s", cfg.Label(), d)
	}
	if !got.Verified {
		t.Errorf("%s: replay not verified: %v", cfg.Label(), got.VerifyErr)
	}
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
			base := nas.Config{Class: nas.ClassS}
			s := record(t, b.build, base)
			for _, p := range vm.Policies {
				for _, set := range engines {
					cfg := base
					cfg.Placement = p
					set(&cfg)
					replayMatchesRun(t, s, b.build, cfg)
				}
			}
			if b.name == "BT" || b.name == "SP" {
				cfg := base
				cfg.Placement, cfg.UPM = vm.WorstCase, nas.UPMRecRep
				replayMatchesRun(t, s, b.build, cfg)
			}
		})
	}
}

// TestReplayShapes covers the stream fields the engine matrix leaves at
// their defaults: a scheduler perturbation, a team narrower than the
// machine, and a hierarchical machine.
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
