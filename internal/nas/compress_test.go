package nas_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"upmgo/internal/machine"
	"upmgo/internal/nas"
	"upmgo/internal/nas/bt"
	"upmgo/internal/nas/cg"
	"upmgo/internal/nas/ep"
	"upmgo/internal/nas/ft"
	"upmgo/internal/nas/mg"
	"upmgo/internal/nas/sp"
	"upmgo/internal/omp"
	"upmgo/internal/vm"
)

// compressedMatchesFull records cfg, a canonical stream cell, twice,
// compressed and simulating every step, and requires the same per-CPU
// log bytes and Ops, and a replay of cfg equal to Run's. It returns the
// compressed stream.
func compressedMatchesFull(t *testing.T, build nas.Builder, cfg nas.Config) *nas.Stream {
	t.Helper()
	s := record(t, build, cfg)
	full, err := nas.RecordStreamFull(build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := s.Log().Diff(full.Log()); d != "" {
		t.Errorf("compressed log differs from the full recording at %s (%v)", d, s.Compression)
	}
	want, err := nas.Run(build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Replay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := nas.Diverge(want, got); d != "" {
		t.Errorf("replay of the compressed recording diverges from Run at %s (%v)", d, s.Compression)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("replay of the compressed recording is not DeepEqual to Run (%v)", s.Compression)
	}
	return s
}

// TestCompressedStreamMatchesFull is the compression contract: for every
// benchmark the sweeps record, on the default machine and on hier64, at
// full and single-thread width, a compressed recording's log is
// byte-identical to the full recording's and its replay is Run's. BT and
// SP must actually compress, so the test cannot pass vacuously.
func TestCompressedStreamMatchesFull(t *testing.T) {
	type bench struct {
		name  string
		build nas.Builder
	}
	s := []bench{{"BT", bt.New}, {"SP", sp.New}, {"CG", cg.New}, {"MG", mg.New}, {"FT", ft.New}}
	cases := []struct {
		benches []bench
		class   nas.Class
		iters   int
	}{
		{s, nas.ClassS, 12},
		{s[:2], nas.ClassW, 15},
	}
	for _, c := range cases {
		for _, b := range c.benches {
			for _, topo := range []string{"", "hier64"} {
				for _, threads := range []int{16, 1} {
					cfg := nas.Config{Class: c.class, Iterations: c.iters, Topo: topo, Threads: threads}
					if topo == "" && c.class == nas.ClassS {
						cfg.Threads = min(threads, 8) // the Class S machine's width
					}
					name := fmt.Sprintf("%s/%s/%s/t%d", b.name, c.class, map[string]string{"": "default", "hier64": "hier64"}[topo], cfg.Threads)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						st := compressedMatchesFull(t, b.build, cfg)
						if (b.name == "BT" || b.name == "SP") && st.Compression.At == 0 {
							t.Errorf("recording never compressed: %v", st.Compression)
						}
						t.Logf("%v", st.Compression)
					})
				}
			}
		}
	}
}

// TestCompressedBTWFiresEarly: the BT W/15 recording the w16-full
// benchmark workload leads settles by step 5.
func TestCompressedBTWFiresEarly(t *testing.T) {
	s := record(t, bt.New, nas.Config{Class: nas.ClassW, Iterations: 15})
	if c := s.Compression; c.At == 0 || c.At > 5 || c.Simulated() != c.At || c.Steps != 15 {
		t.Errorf("BT W/15 compression %+v, want a repeat by step 5 of 15", c)
	}
}

// TestCompressedStepIndexedKernel: the synthetic kernel charges extra
// compute every workPeriod-th step, so its cache-side state repeats
// every step while its log does not. Condition (b) must hold the
// recording back for good, and its log must equal the full recording.
func TestCompressedStepIndexedKernel(t *testing.T) {
	for _, period := range []int{2, 3} {
		t.Run(fmt.Sprint("period", period), func(t *testing.T) {
			cfg := nas.Config{Class: nas.ClassS, Threads: 2, Iterations: 20}
			s := compressedMatchesFull(t, synthBuilder(0, period), cfg)
			if c := s.Compression; c.At != 0 || c.Why != nas.WhyNoRepeat {
				t.Errorf("compression %+v, want none with why %q: the kernel's period is %d", c, nas.WhyNoRepeat, period)
			}
		})
	}
}

// TestCompressedPerturbation: a tail copied from one step would miss the
// rebinding at PerturbAt, so a perturbed recording simulates every step,
// says why, and still logs and replays exactly.
func TestCompressedPerturbation(t *testing.T) {
	for _, p := range []int{2, 6, 11} {
		cfg := nas.Config{Class: nas.ClassS, PerturbAt: p, Iterations: 12}
		s := compressedMatchesFull(t, bt.New, cfg)
		if c := s.Compression; c.At != 0 || c.Why != nas.WhyPerturbed || c.Simulated() != 12 {
			t.Errorf("PerturbAt %d of 12: compression %+v, want none with why %q", p, c, nas.WhyPerturbed)
		}
	}
}

// TestCompressionReasons: a recording too short to compare, a declined
// one and a data-driven kernel each say why they simulated every step.
func TestCompressionReasons(t *testing.T) {
	s := compressedMatchesFull(t, bt.New, nas.Config{Class: nas.ClassS, Iterations: 2})
	if c := s.Compression; c.At != 0 || c.Why != nas.WhyNoRepeat || c.Simulated() != 2 {
		t.Errorf("2 steps: compression %+v, want none with why %q", c, nas.WhyNoRepeat)
	}
	s = compressedMatchesFull(t, ep.New, nas.Config{Class: nas.ClassS, Iterations: 6})
	if c := s.Compression; c.At != 0 || c.Why != nas.WhyVarying {
		t.Errorf("EP: compression %+v, want none with why %q", c, nas.WhyVarying)
	}
}

// countingKernel counts the timed Steps its numerics take, and its
// Verify always fails, naming that count.
type countingKernel struct {
	nas.Kernel
	steps int
}

func (k *countingKernel) Step(t *omp.Team, h *nas.Hooks) {
	k.steps++
	k.Kernel.Step(t, h)
}

func (k *countingKernel) Reinit() {
	k.steps = 0
	k.Kernel.Reinit()
}

func (k *countingKernel) Verify() error { return fmt.Errorf("ran %d steps", k.steps) }

// TestCompressedRecordingVerdict: after its repeat the recording still
// advances the kernel's numerics through every timed step, and every
// replay reports the recording's verdict, a failing one included.
func TestCompressedRecordingVerdict(t *testing.T) {
	build := func(m *machine.Machine, class nas.Class, scale int, seed uint64) nas.Kernel {
		return &countingKernel{Kernel: synthBuilder(0, 0)(m, class, scale, seed)}
	}
	cfg := nas.Config{Class: nas.ClassS, Threads: 2, Iterations: 12}
	s := compressedMatchesFull(t, build, cfg)
	if s.Compression.At == 0 {
		t.Fatalf("recording never compressed: %v", s.Compression)
	}
	cfg.Placement = vm.WorstCase
	got, err := s.Replay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.VerifyErr == nil || got.VerifyErr.Error() != "ran 12 steps" {
		t.Errorf("replay's verdict %v, want the recording's %q", got.VerifyErr, "ran 12 steps")
	}
}

// stoppingKernel is a countingKernel that calls stop with its machine
// after its at-th timed step.
type stoppingKernel struct {
	*countingKernel
	m    *machine.Machine
	at   int
	stop func(*machine.Machine)
}

func (k stoppingKernel) Step(t *omp.Team, h *nas.Hooks) {
	k.countingKernel.Step(t, h)
	if k.steps == k.at {
		k.stop(k.m)
	}
}

// TestRecordStreamHandsOverAtRepeat: a compressed recording publishes its
// final frontier at its repeat and goes on, in the same Record call, to
// its verdict: the remaining steps in free-run mode on a machine without
// cache-side state, then Verify. A replay returns while that verdict is
// held, the stream is judged only once it ends, and then reports all 12
// timed steps, as Replay does. A recording cancelled during its verdict
// fails: Record, Judge and Replay return context.Canceled, not a
// VerifyErr.
func TestRecordStreamHandsOverAtRepeat(t *testing.T) {
	var stop func(*machine.Machine)
	build := func(m *machine.Machine, class nas.Class, scale int, seed uint64) nas.Kernel {
		return stoppingKernel{&countingKernel{Kernel: synthBuilder(0, 0)(m, class, scale, seed)}, m, 8, func(m *machine.Machine) { stop(m) }}
	}
	cfg := nas.Config{Class: nas.ClassS, Threads: 2, Iterations: 12}
	stop = func(*machine.Machine) {}
	full, err := nas.RecordStreamFull(build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := full.Replay(cfg); err != nil {
		t.Fatal(err)
	} else if got.VerifyErr == nil || got.VerifyErr.Error() != "ran 12 steps" {
		t.Errorf("full recording's verdict %v, want %q", got.VerifyErr, "ran 12 steps")
	}
	held, release := make(chan *machine.Machine), make(chan struct{})
	stop = func(m *machine.Machine) {
		held <- m
		<-release
	}
	s, err := nas.NewStream(build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	recorded := make(chan error, 1)
	go func() { recorded <- s.Record(context.Background(), nil) }()
	if m := <-held; !m.FreeRun() || !m.CacheStateDropped() {
		t.Error("the verdict's step 8 ran outside free-run mode or with the machine's cache-side state")
	}
	if s.Compression.At == 0 || s.Compression.At >= 8 {
		t.Errorf("recording compressed at step %d, want one before step 8", s.Compression.At)
	}
	replay := cfg
	replay.Placement = vm.WorstCase
	res, err := s.ReplayUnjudged(replay, nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.Judged():
		t.Error("the stream was judged while its verdict was held")
	default:
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Judge(ctx, &res); !errors.Is(err, context.Canceled) {
		t.Errorf("Judge before the verdict returned %v, want context.Canceled", err)
	}
	close(release)
	if err := <-recorded; err != nil {
		t.Fatal(err)
	}
	if err := s.Judge(context.Background(), &res); err != nil {
		t.Fatalf("Judge after the verdict returned %v", err)
	}
	if res.VerifyErr == nil || res.VerifyErr.Error() != "ran 12 steps" {
		t.Errorf("judged replay's verdict %v, want %q", res.VerifyErr, "ran 12 steps")
	}
	want, err := s.Replay(replay)
	if err != nil {
		t.Fatal(err)
	}
	if d := nas.Diverge(want, res); d != "" {
		t.Errorf("judged replay diverges from Replay at %s", d)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	stop = func(*machine.Machine) { cancel() }
	if s, err = nas.NewStream(build, cfg); err != nil {
		t.Fatal(err)
	}
	if err := s.Record(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Record cancelled during its verdict returned %v, want context.Canceled", err)
	}
	if s.Compression.At == 0 || s.Compression.At >= 8 {
		t.Fatalf("recording compressed at step %d, want one before step 8", s.Compression.At)
	}
	res = nas.Result{}
	if err := s.Judge(context.Background(), &res); !errors.Is(err, context.Canceled) || res.VerifyErr != nil {
		t.Errorf("Judge of a cancelled verdict returned %v with VerifyErr %v, want context.Canceled", err, res.VerifyErr)
	}
	if _, err := s.Replay(replay); !errors.Is(err, context.Canceled) {
		t.Errorf("Replay of a cancelled verdict returned %v, want context.Canceled", err)
	}
}
