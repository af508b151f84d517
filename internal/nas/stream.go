package nas

import (
	"context"
	"fmt"
	"sync"
	"time"

	"upmgo/internal/kmig"
	"upmgo/internal/machine"
	"upmgo/internal/omp"
	"upmgo/internal/upm"
	"upmgo/internal/vm"
)

// L2-miss stream replay (DESIGN.md §17). Placement, kernel migration and
// UPMlib act only behind an L2 miss; the caches, the coherence directory
// and the kernel numerics in front of it do the same work in every cell
// of a sweep that differs only in those fields. RecordStream simulates
// that work once, logging the miss stream; Stream.Replay then runs Run
// unchanged — cold start, engines, PerturbAt, verification — with a
// kernel that feeds each CPU its logged charges and misses instead of
// simulating them. Run on the real kernel stays the reference path:
// replayed Results are bit-identical to it.

// StreamFingerprint returns the key of cfg's L2-miss stream: the
// Fingerprint of the stream's canonical cell, cfg with first-touch
// placement, every engine off and the steady-state detector off.
// Placement, KernelMig, UPM, UPMOptions, Kmig, SteadyState, Extrapolate
// and SteadyWindow are the fields it drops; class, topology, threads,
// iterations, scale, PerturbAt, seed and SkipVerify stay (PerturbAt
// rotates threads by CPUsPerNode, so the machine shape matters). The
// recording therefore never extrapolates, and the steady and plain
// cells of one grid share it: the log keeps every counter the detector
// reads. The second result is false where Fingerprint's is.
func (c Config) StreamFingerprint() (string, bool) {
	fp, ok := c.streamCell().Fingerprint()
	if !ok {
		return "", false
	}
	return "stream\x00" + fp, true
}

// streamCell returns the stream's canonical cell for cfg: first touch,
// engines and steady-state detector off.
func (c Config) streamCell() Config {
	c.Placement = vm.FirstTouch
	c.KernelMig, c.UPM = false, UPMOff
	c.UPMOptions, c.Kmig = upm.Options{}, kmig.Config{}
	c.SteadyState, c.Extrapolate, c.SteadyWindow = false, false, 0
	return c
}

// Stream is one benchmark's recorded L2-miss stream, or the reason it
// could not be recorded. It answers no cell itself: every cell of the
// stream, its canonical cell included, replays it. Its log is immutable,
// so concurrent replays may share it.
//
// A recording hands its stream over once its log is complete, at the
// repeat when it compressed, before its numerics have been verified: the
// stream's verdict task, the remaining free-run steps and Verify, is
// still to run (RunVerdict), and Judged is closed once it has. A stream
// that skips verification, or whose recording declined, is judged when
// RecordStream returns.
type Stream struct {
	// Declined, when non-empty, names the construct that made the run
	// unreplayable (an EventSet, a critical section, a dynamic schedule
	// or write tracking); such a stream holds no log.
	Declined string
	// Compression says how many timed steps the recording simulated and
	// where its cache-side state started to repeat, or why it never did.
	Compression Compression

	key        string // Fingerprint of the canonical cell
	log        *machine.Stream
	name       string
	iters      int
	hasPhase   bool
	hot        [][2]uint64
	heapPages  uint64 // the recorded heap, which every replay allocates
	skipVerify bool

	mu        sync.Mutex    // serialises RunVerdict
	task      *verdictTask  // the verdict task's remainder; nil once judged
	judged    chan struct{} // closed once verifyErr is final
	verifyErr error         // the numerics' verdict, which every replay reports
}

// verdictTask is what a recording leaves to run after its handoff: the
// kernel's numerics through the timed steps it did not simulate (none
// when it never compressed), in free-run mode on the recording's
// machine, then Verify.
type verdictTask struct {
	k    Kernel
	team *omp.Team
	m    *machine.Machine
	left int // free-run steps still to run
}

// Compression reports how a recording ended (DESIGN.md §17). Once the
// cache-side state at the end of a timed step repeats that of the step
// before, the recorder copies the last step's log for the remaining
// steps and the stream is complete; only the kernel's numerics remain to
// advance, in free-run mode, for the verify verdict (Stream.RunVerdict).
// A recording with PerturbAt set simulates every step.
type Compression struct {
	// Steps is the number of timed steps the recording ran.
	Steps int `json:"steps"`
	// At is the timed step at whose end the state repeated, 0 when it
	// never did.
	At int `json:"at,omitempty"`
	// Why says why every step was simulated, when At is 0: one of the
	// Why* values, or the recorder's reason for refusing a repeat it
	// found.
	Why string `json:"why,omitempty"`
}

// Reasons a recording simulated every timed step.
const (
	WhyNoRepeat  = "no repeat before the last step"
	WhyPerturbed = "PerturbAt rebinds the team"
	WhyDeclined  = "recording declined"
	WhyVarying   = "the kernel's steps vary with its data"
)

// Simulated returns the number of timed steps whose caches the recording
// simulated.
func (c Compression) Simulated() int {
	if c.At > 0 {
		return c.At
	}
	return c.Steps
}

// String renders the compression for reports: "simulated 4 of 15 timed
// steps (repeat at step 4)".
func (c Compression) String() string {
	s := fmt.Sprintf("simulated %d of %d timed steps", c.Simulated(), c.Steps)
	if c.At > 0 {
		return s + fmt.Sprintf(" (repeat at step %d)", c.At)
	}
	return s + " (" + c.Why + ")"
}

// RecordStream runs cfg's canonical stream cell with a recorder attached
// and returns the stream as soon as its log is complete: its log, its
// Compression and, when the recording declined, the reason. cfg must
// have a stream fingerprint; its HostStages sink is not charged. The
// recording simulates the caches only until their state repeats (see
// Compression); its log is that of a full simulation. The recording
// never verifies: a verifying stream returns with its verdict still to
// run (RunVerdict), any other returns judged.
func RecordStream(build Builder, cfg Config) (*Stream, error) {
	return recordStream(build, cfg, true)
}

// recordStream is RecordStream; with compress false it simulates every
// step, the reference a compressed recording is tested against.
func recordStream(build Builder, cfg Config, compress bool) (*Stream, error) {
	if _, ok := cfg.StreamFingerprint(); !ok {
		return nil, fmt.Errorf("nas: config without a stream fingerprint (traced, sampled or tweaked) cannot be recorded")
	}
	s := &Stream{judged: make(chan struct{}), skipVerify: cfg.SkipVerify}
	cfg = cfg.streamCell()
	cfg.HostStages = nil
	s.key, _ = cfg.Fingerprint()
	cfg.SkipVerify = true
	var k *recordingKernel
	// Run drives the recording up to the handoff; its Result is not a
	// cell's, since the steps after a repeat or a decline run nothing.
	_, err := Run(func(m *machine.Machine, class Class, scale int, seed uint64) Kernel {
		// A tail copied from one step would miss the rebinding at
		// PerturbAt, so such a recording simulates every step.
		k = &recordingKernel{Kernel: build(m, class, scale, seed), m: m,
			compress: compress && cfg.PerturbAt == 0}
		if _, ok := k.Kernel.(Varying); ok {
			k.compress = false
		}
		s.heapPages = m.AllocatedPages()
		k.rec = machine.NewRecorder(m)
		m.SetRecorder(k.rec)
		k.comp = &s.Compression
		k.comp.Steps = cfg.Iterations
		if k.comp.Steps == 0 {
			k.comp.Steps = k.DefaultIterations()
		}
		return k
	}, cfg)
	if err != nil {
		return nil, err
	}
	switch c := &s.Compression; {
	case c.At > 0:
	case k.rec.Declined() != "":
		c.Why = WhyDeclined
	case cfg.PerturbAt > 0:
		c.Why = WhyPerturbed
	case !k.compress && compress:
		c.Why = WhyVarying
	case k.rec.Blocked() != "":
		c.Why = k.rec.Blocked()
	default:
		c.Why = WhyNoRepeat
	}
	if s.Declined = k.rec.Declined(); s.Declined != "" {
		close(s.judged)
		return s, nil
	}
	if s.log, err = k.rec.Finish(); err != nil {
		return nil, err
	}
	s.name, s.iters, s.hasPhase, s.hot = k.Name(), k.DefaultIterations(), k.HasPhase(), k.HotPages()
	k.m.DropCacheState()
	if s.skipVerify {
		close(s.judged)
		return s, nil
	}
	c := s.Compression
	s.task = &verdictTask{k: k.Kernel, team: k.team, m: k.m, left: c.Steps - c.Simulated()}
	return s, nil
}

// Judged returns a channel that is closed once the stream's verdict is
// known.
func (s *Stream) Judged() <-chan struct{} { return s.judged }

// RunVerdict runs what is left of the stream's verdict task in the
// calling goroutine and returns nil once the verdict is known; a judged
// stream returns at once. It checks ctx between steps: when ctx ends
// first it returns ctx.Err() and leaves the remaining steps to the next
// call. Concurrent calls run the task one at a time. hs, when non-nil,
// is charged the task's host time as FreeRunTail.
func (s *Stream) RunVerdict(ctx context.Context, hs *HostStages) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.task
	if v == nil {
		return nil
	}
	var t0 time.Time
	if hs != nil {
		t0 = time.Now()
	}
	v.m.SetFreeRun(true)
	for v.left > 0 && ctx.Err() == nil {
		v.k.Step(v.team, &Hooks{})
		v.left--
	}
	if v.left == 0 {
		s.verifyErr, s.task = v.k.Verify(), nil
	}
	// hs is charged before the verdict is published: its reader waits
	// on judged.
	if hs != nil {
		hs.FreeRunTail += time.Since(t0)
	}
	if s.task != nil {
		return ctx.Err()
	}
	close(s.judged)
	return nil
}

// Judge waits for the stream's verdict and sets res, a Result of
// ReplayUnjudged, to report it as Run would. It returns ctx.Err() when
// ctx ends before the verdict is known.
func (s *Stream) Judge(ctx context.Context, res *Result) error {
	select {
	case <-s.judged:
	case <-ctx.Done():
		select {
		case <-s.judged:
		default:
			return ctx.Err()
		}
	}
	if !s.skipVerify {
		res.VerifyErr = s.verifyErr
		res.Verified = s.verifyErr == nil
	}
	return nil
}

// Size returns what the stream's log stores; zero when it declined.
func (s *Stream) Size() machine.StreamSize {
	if s.log == nil {
		return machine.StreamSize{}
	}
	return s.log.Size()
}

// Replay runs cfg against the stream: Run with a kernel that replays the
// log. cfg must have the stream's fingerprint; the Result, the
// recording's verdict included, is bit-identical to Run on the real
// kernel. It runs the stream's verdict task first if it is still
// pending.
func (s *Stream) Replay(cfg Config) (Result, error) {
	res, err := s.ReplayUnjudged(cfg)
	if err != nil {
		return Result{}, err
	}
	if err := s.RunVerdict(context.Background(), nil); err != nil {
		return Result{}, err
	}
	return res, s.Judge(context.Background(), &res)
}

// ReplayUnjudged is Replay without the verdict: it does not wait for the
// stream's verdict task, and the Result's VerifyErr and Verified are
// Judge's to set.
func (s *Stream) ReplayUnjudged(cfg Config) (Result, error) {
	if s.log == nil {
		return Result{}, fmt.Errorf("nas: stream declined (%s); nothing to replay", s.Declined)
	}
	if key, ok := cfg.StreamFingerprint(); !ok || key != "stream\x00"+s.key {
		return Result{}, fmt.Errorf("nas: config stream %q does not match recorded stream %q", key, s.key)
	}
	return Run(s.build, cfg)
}

// build is the replay's Builder: it drops the machine's cache-side state,
// which a replay never reads, and allocates the recorded heap, so
// AllocatedPages and the hot page spans match the real kernel's.
func (s *Stream) build(m *machine.Machine, _ Class, _ int, _ uint64) Kernel {
	m.DropCacheState()
	if s.heapPages > 0 {
		m.Alloc(int(s.heapPages << m.PageShift()))
	}
	return &replayKernel{s: s, m: m, rd: s.log.NewReader(m)}
}

// recordingKernel marks the end of every InitTouch and Step call in the
// stream, so the replay kernel knows where each call's steps stop. With
// compress set it also asks the recorder, at the end of every Step,
// whether the cache-side state repeats. Once it does, the log is
// complete: each remaining Step does nothing, leaving the numerics to
// the stream's verdict task. Once the recorder declines, each does
// nothing too.
type recordingKernel struct {
	Kernel
	m        *machine.Machine
	rec      *machine.Recorder
	comp     *Compression
	compress bool
	calls    int       // Step calls so far, the cold start's included
	team     *omp.Team // the team the verdict task steps
}

func (k *recordingKernel) InitTouch(t *omp.Team) {
	k.Kernel.InitTouch(t)
	k.mark()
}

func (k *recordingKernel) Step(t *omp.Team, h *Hooks) {
	if k.rec.Declined() != "" || k.comp.At > 0 {
		return
	}
	k.Kernel.Step(t, h)
	k.mark()
	k.team = t
	// Call 0 is the untimed cold start, where the recorder's history
	// starts; the timed loop's step s is call s.
	step := k.calls
	k.calls++
	if k.compress && k.rec.Repeat(k.comp.Steps-step) {
		k.comp.At = step
	}
}

func (k *recordingKernel) mark() {
	if rec := k.m.Recorder(); rec != nil {
		rec.Mark(machine.OpReturn, nil)
	}
}

// replayKernel re-issues a recorded run's structure — regions,
// barriers, serial sections and phase hooks — feeding every CPU its
// logged charges and misses. rd holds the next structural step and each
// CPU log's next record.
type replayKernel struct {
	s  *Stream
	m  *machine.Machine
	rd *machine.StreamReader
}

func (k *replayKernel) Name() string           { return k.s.name }
func (k *replayKernel) DefaultIterations() int { return k.s.iters }
func (k *replayKernel) HasPhase() bool         { return k.s.hasPhase }
func (k *replayKernel) HotPages() [][2]uint64  { return k.s.hot }

// Reinit has nothing to restore: the replay holds no numerics.
func (k *replayKernel) Reinit() {}

// Verify passes: the replay holds no numerics. The verdict is the
// recording's, which Stream.Judge reports, since the numerics do not
// depend on placement, engines or extrapolation.
func (k *replayKernel) Verify() error { return nil }

func (k *replayKernel) InitTouch(t *omp.Team) { k.replay(t, nil) }

// Step replays one timestep. In free-run mode (the tail after an
// extrapolation) it returns at once: the replay has no numerics to
// advance, and Verify already knows the answer. No replay therefore
// reads its log in free-run mode, and the machine's replay charges
// carry no free-run guard.
func (k *replayKernel) Step(t *omp.Team, h *Hooks) {
	if !k.m.FreeRun() {
		k.replay(t, h)
	}
}

// replay runs the recorded steps up to the end of the current kernel
// call.
func (k *replayKernel) replay(t *omp.Team, h *Hooks) {
	if k.m.PT.WriteTracking() {
		// Stores that hit in a cache are not in the log.
		panic("nas: stream replay cannot track writes")
	}
	for {
		switch op := k.rd.Op(); op.Kind {
		case machine.OpReturn:
			return
		case machine.OpSerial:
			k.rd.Replay(k.m.CPU(op.CPU))
		case machine.OpPhaseEnter:
			h.PhaseEnter(k.m.CPU(op.CPU))
		case machine.OpPhaseExit:
			h.PhaseExit(k.m.CPU(op.CPU))
		case machine.OpRegion:
			t.ParallelNamed(op.Name, k.member)
		}
	}
}

// member replays one thread's share of a region.
func (k *replayKernel) member(tr *omp.Thread) {
	for k.rd.Replay(tr.CPU) {
		tr.Barrier()
	}
}
