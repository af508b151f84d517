package nas_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"upmgo/internal/machine"
	"upmgo/internal/nas"
	"upmgo/internal/nas/bt"
	"upmgo/internal/nas/cg"
	"upmgo/internal/nas/ft"
	"upmgo/internal/nas/mg"
	"upmgo/internal/nas/sp"
	"upmgo/internal/omp"
	"upmgo/internal/vm"
)

// gateKernel holds the recording at the start of its Step call at (call
// 0 is the cold start) until hold returns.
type gateKernel struct {
	nas.Kernel
	calls *int
	at    int
	hold  func()
}

func (k gateKernel) Step(t *omp.Team, h *nas.Hooks) {
	if *k.calls == k.at {
		k.hold()
	}
	*k.calls++
	k.Kernel.Step(t, h)
}

// follower is one replay started before its stream's recording.
type follower struct {
	cfg    nas.Config
	parked atomic.Bool // waiting at the frontier now
	stop   error       // what park returns, once set
	res    nas.Result
	err    error
}

func (f *follower) park(ready <-chan struct{}) error {
	if f.stop != nil {
		return f.stop
	}
	f.parked.Store(true)
	defer f.parked.Store(false)
	<-ready
	return nil
}

// follow starts a replay of every follower against cfg's stream before
// the stream is recorded, then records it, holding the recording at the
// start of Step call 2 until every follower is parked at the frontier:
// each has replayed what the recording published and waits for more. It
// returns the stream once every replay has returned.
func follow(t *testing.T, build nas.Builder, cfg nas.Config, fs []*follower) *nas.Stream {
	t.Helper()
	calls := 0
	hold := func() {
		for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
			all := true
			for _, f := range fs {
				all = all && (f.parked.Load() || f.stop != nil)
			}
			if all {
				return
			}
			if time.Now().After(deadline) {
				t.Error("followers not parked at the frontier after a minute")
				return
			}
		}
	}
	s, err := nas.NewStream(func(m *machine.Machine, class nas.Class, scale int, seed uint64) nas.Kernel {
		return gateKernel{build(m, class, scale, seed), &calls, 2, hold}
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, f := range fs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.res, f.err = s.ReplayUnjudged(f.cfg, f.park)
		}()
	}
	if err := s.Record(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return s
}

// TestReplayFollowsRecording: replays started before the recording,
// parked at its frontier mid-run and carried through its handoff, are
// bit-identical to replays of the finished stream and to Run, verdict
// included. It covers the five replayed benchmarks under first-touch
// and worst-case placement with kernel migration and with UPMlib, a
// PerturbAt stream, which never compresses, and a one-thread team.
func TestReplayFollowsRecording(t *testing.T) {
	s12 := nas.Config{Class: nas.ClassS, Iterations: 12}
	for _, c := range []struct {
		name       string
		build      nas.Builder
		cfg        nas.Config
		compressed bool
	}{
		{"BT", bt.New, s12, true},
		{"SP", sp.New, s12, true},
		{"CG", cg.New, s12, true},
		{"MG", mg.New, s12, true},
		{"FT", ft.New, s12, true},
		{"perturb", bt.New, nas.Config{Class: nas.ClassS, PerturbAt: 2, Iterations: 5}, false},
		{"threads1", bt.New, nas.Config{Class: nas.ClassS, Threads: 1, Iterations: 6}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var fs []*follower
			for _, p := range []vm.Policy{vm.FirstTouch, vm.WorstCase} {
				cfg := c.cfg
				cfg.Placement, cfg.KernelMig = p, true
				fs = append(fs, &follower{cfg: cfg})
				cfg.KernelMig, cfg.UPM = false, nas.UPMDistribute
				fs = append(fs, &follower{cfg: cfg})
			}
			s := follow(t, c.build, c.cfg, fs)
			if c.compressed && s.Compression.At == 0 {
				t.Errorf("recording did not compress (%s); the followers never read a block", s.Compression.Why)
			}
			if !c.compressed && c.cfg.PerturbAt > 0 && s.Compression.Why != nas.WhyPerturbed {
				t.Errorf("PerturbAt recording: %s", s.Compression)
			}
			for _, f := range fs {
				if f.err != nil {
					t.Fatalf("%s: follower: %v", f.cfg.Label(), f.err)
				}
				if err := s.RunVerdict(context.Background(), nil); err != nil {
					t.Fatal(err)
				}
				if err := s.Judge(context.Background(), &f.res); err != nil {
					t.Fatal(err)
				}
				want, err := nas.Run(c.build, f.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if d := nas.Diverge(want, f.res); d != "" {
					t.Errorf("%s: follower diverges from Run at %s", f.cfg.Label(), d)
				}
				finished, err := s.Replay(f.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if d := nas.Diverge(finished, f.res); d != "" {
					t.Errorf("%s: follower diverges from a replay of the finished stream at %s", f.cfg.Label(), d)
				}
				if !f.res.Verified {
					t.Errorf("%s: follower not verified: %v", f.cfg.Label(), f.res.VerifyErr)
				}
			}
		})
	}
}

// TestReplayFollowerAborts: a recording that declines while replays are
// parked at its frontier fails them with machine.ErrDeclined, and a
// follower whose Parker gives up returns the Parker's error.
func TestReplayFollowerAborts(t *testing.T) {
	declines := 0
	build := func(m *machine.Machine, class nas.Class, scale int, seed uint64) nas.Kernel {
		return decliningKernel{synthBuilder(0, 0)(m, class, scale, seed), m, 3, &declines}
	}
	cfg := nas.Config{Class: nas.ClassS, Threads: 2, Iterations: 8}
	errStop := errors.New("stop")
	fs := []*follower{{cfg: cfg}, {cfg: cfg}, {cfg: cfg, stop: errStop}}
	s := follow(t, build, cfg, fs)
	if s.Declined != "synthetic" {
		t.Fatalf("Declined = %q, want synthetic", s.Declined)
	}
	for i, f := range fs[:2] {
		if !errors.Is(f.err, machine.ErrDeclined) {
			t.Errorf("follower %d returned %v, want machine.ErrDeclined", i, f.err)
		}
	}
	if !errors.Is(fs[2].err, errStop) {
		t.Errorf("follower whose Parker gave up returned %v, want its error", fs[2].err)
	}
}
