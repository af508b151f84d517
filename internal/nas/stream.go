package nas

import (
	"context"
	"fmt"

	"upmgo/internal/kmig"
	"upmgo/internal/machine"
	"upmgo/internal/omp"
	"upmgo/internal/upm"
	"upmgo/internal/vm"
)

// L2-miss stream replay (DESIGN.md §17). Placement, kernel migration and
// UPMlib act only behind an L2 miss; the caches, the coherence directory
// and the kernel numerics in front of it do the same work in every cell
// of a sweep that differs only in those fields. Stream.Record simulates
// that work once, logging the miss stream; Stream.Replay then runs Run
// unchanged — cold start, engines, PerturbAt, verification — with a
// kernel that feeds each CPU its logged charges and misses instead of
// simulating them, following the recording call by call while it still
// runs. Run on the real kernel stays the reference path: replayed
// Results are bit-identical to it.

// StreamFingerprint returns the key of cfg's L2-miss stream: the
// Fingerprint of the stream's canonical cell, cfg with first-touch
// placement, every engine off and the steady-state detector off.
// Placement, KernelMig, UPM, UPMOptions, Kmig, SteadyState, Extrapolate
// and SteadyWindow are the fields it drops; class, topology, threads,
// iterations, scale, PerturbAt, seed and SkipVerify stay (PerturbAt
// rotates threads by CPUsPerNode, so the machine shape matters). The
// recording therefore never extrapolates, and the steady and plain
// cells of one grid share it: the log keeps every counter the detector
// reads. The second result is false where Fingerprint's is. The key has
// no prefix of its own: it names a stream only within the batch that
// records it and is never persisted, so it never meets a cell key.
func (c Config) StreamFingerprint() (string, bool) {
	return c.streamCell().Fingerprint()
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
// stream, its canonical cell included, replays it. Its log is published
// as the recording goes (machine.Stream) and never changes once
// published, so concurrent replays may share it, following a recording
// that is still running.
//
// A stream is made by NewStream and recorded by Record, the stream's
// one task: it publishes the final frontier once the log is complete,
// at the repeat when it compressed, and goes on to its verdict, the
// remaining free-run steps and Verify. The stream is judged when Record
// returns.
type Stream struct {
	// Declined, when non-empty, names the construct that made the run
	// unreplayable (an EventSet, a critical section, a dynamic schedule
	// or write tracking); such a stream holds no log. Like Compression,
	// it is final once the final frontier is published.
	Declined string
	// Compression says how many timed steps the recording simulated and
	// where its cache-side state started to repeat, or why it never did.
	Compression Compression

	key      string // StreamFingerprint of every cell the stream answers
	log      *machine.Stream
	builder  Builder // the recording's kernel
	cfg      Config  // the recording's cell
	compress bool

	// The header, set before the log's first publication.
	name      string
	iters     int
	hasPhase  bool
	hot       [][2]uint64
	heapPages uint64 // the recorded heap, which every replay allocates

	judged    chan struct{} // closed once err and verifyErr are final
	err       error         // why the stream failed, which Judge returns
	verifyErr error         // the numerics' verdict, which every replay reports
}

// Compression reports how a recording ended (DESIGN.md §17). Once the
// cache-side state at the end of a timed step repeats that of the step
// before, the recorder copies the last step's log for the remaining
// steps and the stream is complete; only the kernel's numerics remain to
// advance, in free-run mode in the same run, for the verify verdict
// (Stream.Record). A recording with PerturbAt set simulates every step.
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

// NewStream returns cfg's stream before anything is recorded: Record
// records it, and replays started meanwhile follow the recording
// (ReplayUnjudged). cfg must have a stream fingerprint; its HostStages
// sink is not charged.
func NewStream(build Builder, cfg Config) (*Stream, error) {
	return newStream(build, cfg, true)
}

// newStream is NewStream; with compress false the recording simulates
// every step, the reference a compressed recording is tested against.
func newStream(build Builder, cfg Config, compress bool) (*Stream, error) {
	key, ok := cfg.StreamFingerprint()
	if !ok {
		return nil, fmt.Errorf("nas: config without a stream fingerprint (traced, sampled or tweaked) cannot be recorded")
	}
	cfg = cfg.streamCell()
	cfg.HostStages = nil
	return &Stream{key: key, log: machine.NewStream(), builder: build, cfg: cfg, judged: make(chan struct{}),
		// A tail copied from one step would miss the rebinding at
		// PerturbAt, so such a recording simulates every step.
		compress: compress && cfg.PerturbAt == 0}, nil
}

// RecordStream is NewStream, then Record with no deadline: it returns
// cfg's stream judged, so replays of it neither park nor wait. The
// sweep runner calls the two itself, so that its cells follow the
// recording.
func RecordStream(build Builder, cfg Config) (*Stream, error) {
	s, err := NewStream(build, cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Record(context.Background(), nil); err != nil {
		return nil, err
	}
	return s, nil
}

// Record runs the stream's task: its canonical cell, with a recorder
// attached that publishes the log's frontier at the end of every kernel
// call. Once the log is complete, at the repeat when it compressed (see
// Compression), at the last timed step or at a decline, it publishes
// the final frontier with the stream's Compression and Declined, and
// replays return. The same run then advances the kernel's numerics
// through the timed steps it did not simulate, in free-run mode, and
// its Verify is the stream's verdict; a declined stream, or one that
// skips verification, has none. Record checks ctx before every step;
// when ctx ends first, or the run fails, the stream fails with that
// error, which Record and Judge return and every replay still
// following the recording fails with. hs, when non-nil, is charged the
// recording's host time as Record before the final frontier is
// published, and the verdict's as FreeRunTail before the stream is
// judged; a declined stream's hs is final at its final frontier. Call it
// once.
func (s *Stream) Record(ctx context.Context, hs *HostStages) error {
	hs.lap(stageRecord)
	k := &recordingKernel{s: s, ctx: ctx, hs: hs}
	var res Result
	err := ctx.Err()
	if err == nil {
		res, err = Run(func(m *machine.Machine, class Class, scale int, seed uint64) Kernel {
			k.Kernel, k.m, k.compress = s.builder(m, class, scale, seed), m, s.compress
			if _, ok := k.Kernel.(Varying); ok {
				k.compress = false
			}
			s.heapPages = m.AllocatedPages()
			s.name, s.iters, s.hasPhase, s.hot = k.Name(), k.DefaultIterations(), k.HasPhase(), k.HotPages()
			k.rec = machine.NewRecorder(m, s.log)
			m.SetRecorder(k.rec)
			s.Compression.Steps = s.cfg.Iterations
			if s.Compression.Steps == 0 {
				s.Compression.Steps = k.DefaultIterations()
			}
			return k
		}, s.cfg)
	}
	if err == nil {
		err = k.err
	}
	if s.Declined == "" {
		// A declined stream's leader reads hs at the final frontier;
		// any other's only once the stream is judged.
		hs.lap(stageNone)
	}
	if !k.final {
		s.log.Abort(err)
	}
	s.err, s.verifyErr = err, res.VerifyErr
	close(s.judged)
	return err
}

// Judge waits for the stream's verdict and sets res, a Result of
// ReplayUnjudged, to report it as Run would. It returns the stream's
// error when the stream failed, and ctx.Err() when ctx ends before the
// verdict is known.
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
	if s.err != nil {
		return s.err
	}
	if !s.cfg.SkipVerify {
		res.VerifyErr = s.verifyErr
		res.Verified = s.verifyErr == nil
	}
	return nil
}

// Size returns what the stream's published log stores; zero when it
// declined.
func (s *Stream) Size() machine.StreamSize { return s.log.Size() }

// Replay runs cfg against the stream: Run with a kernel that replays the
// log. cfg must have the stream's fingerprint; the Result, the
// recording's verdict included, is bit-identical to Run on the real
// kernel. It waits for the stream's verdict.
func (s *Stream) Replay(cfg Config) (Result, error) {
	res, err := s.ReplayUnjudged(cfg, nil)
	if err != nil {
		return Result{}, err
	}
	return res, s.Judge(context.Background(), &res)
}

// ReplayUnjudged is Replay without the verdict: it does not wait for the
// stream's verdict, and the Result's VerifyErr and Verified are
// Judge's to set. It follows a recording that is still running: it
// waits for the recording's first kernel call, replays each call once
// the recording has published it, parking at the frontier until then,
// and returns once the recording has ended. park says what a wait
// does (nil blocks); cfg's HostStages sink is charged the time parked as
// Record. It fails with the recording's error when the recording
// fails or declines (machine.ErrDeclined), and with park's when park
// gives up.
func (s *Stream) ReplayUnjudged(cfg Config, park machine.Parker) (Result, error) {
	if key, ok := cfg.StreamFingerprint(); !ok || key != s.key {
		return Result{}, fmt.Errorf("nas: config stream %q does not match recorded stream %q", key, s.key)
	}
	park = cfg.HostStages.parker(park)
	if err := s.log.WaitBegun(park); err != nil {
		return Result{}, err
	}
	var k *replayKernel
	res, err := Run(func(m *machine.Machine, _ Class, _ int, _ uint64) Kernel {
		k = s.replayKernel(m, park)
		return k
	}, cfg)
	if err == nil {
		err = k.err
	}
	if err == nil {
		err = s.log.WaitFinal(park)
	}
	if err != nil {
		return Result{}, err
	}
	return res, nil
}

// parker returns park charging h, when non-nil, its time parked as
// Record, whatever stage the run is in, which resumes afterwards.
func (h *HostStages) parker(park machine.Parker) machine.Parker {
	return func(ready <-chan struct{}) error {
		defer h.lap(h.lap(stageRecord))
		return park.Park(ready)
	}
}

// replayKernel returns a replay's kernel on m, whose reader parks with
// park: it drops the machine's cache-side state, which a replay never
// reads, and allocates the recorded heap, so AllocatedPages and the hot
// page spans match the real kernel's.
func (s *Stream) replayKernel(m *machine.Machine, park machine.Parker) *replayKernel {
	m.DropCacheState()
	if s.heapPages > 0 {
		m.Alloc(int(s.heapPages << m.PageShift()))
	}
	return &replayKernel{s: s, m: m, rd: s.log.NewReader(m, park)}
}

// recordingKernel marks the end of every InitTouch and Step call in the
// stream, so the replay kernel knows where each call's steps stop. With
// compress set it also asks the recorder, at the end of every Step,
// whether the cache-side state repeats. Once the log is complete (final)
// each remaining Step only advances the numerics, in free-run mode, for
// Verify; once the recorder has declined, or ctx has ended, each does
// nothing, and neither has a verdict.
type recordingKernel struct {
	Kernel
	s        *Stream
	m        *machine.Machine
	rec      *machine.Recorder
	ctx      context.Context
	err      error // ctx's error, once a Step saw it
	hs       *HostStages
	compress bool
	final    bool // the final frontier is published
	calls    int  // Step calls so far, the cold start's included
}

func (k *recordingKernel) InitTouch(t *omp.Team) {
	k.Kernel.InitTouch(t)
	k.mark()
	if k.rec.Declined() != "" {
		k.publish()
	}
}

func (k *recordingKernel) Step(t *omp.Team, h *Hooks) {
	if k.s.Declined != "" || k.err != nil {
		return
	}
	if k.err = k.ctx.Err(); k.err != nil {
		return
	}
	if k.final {
		if !k.s.cfg.SkipVerify {
			k.Kernel.Step(t, h)
		}
		return
	}
	k.Kernel.Step(t, h)
	k.mark()
	// Call 0 is the untimed cold start, where the recorder's history
	// starts; the timed loop's step s is call s.
	step := k.calls
	k.calls++
	c := &k.s.Compression
	if k.compress && k.rec.Repeat(c.Steps-step) {
		c.At = step
	}
	if c.At > 0 || k.rec.Declined() != "" || step == c.Steps {
		k.publish()
	}
}

// Verify is the stream's verdict, which a declined or stopped recording
// does not have.
func (k *recordingKernel) Verify() error {
	if k.err != nil || k.s.Declined != "" {
		return nil
	}
	return k.Kernel.Verify()
}

func (k *recordingKernel) mark() {
	if rec := k.m.Recorder(); rec != nil {
		rec.Mark(machine.OpReturn, nil)
	}
}

// publish ends the recording once its log is complete: it settles the
// stream's Compression and Declined, which replays read, detaches the
// recorder, drops the machine's cache-side state, which nothing reads
// from now on, and publishes the final frontier. The machine runs free
// afterwards.
func (k *recordingKernel) publish() {
	s := k.s
	switch c := &s.Compression; {
	case c.At > 0:
	case k.rec.Declined() != "":
		c.Why = WhyDeclined
	case s.cfg.PerturbAt > 0:
		c.Why = WhyPerturbed
	case !k.compress && s.compress:
		c.Why = WhyVarying
	case k.rec.Blocked() != "":
		c.Why = k.rec.Blocked()
	default:
		c.Why = WhyNoRepeat
	}
	s.Declined = k.rec.Declined()
	k.m.SetRecorder(nil)
	k.m.DropCacheState()
	k.m.SetFreeRun(true)
	// Lapped before the publication: the leader of a declined stream
	// reads hs as soon as the frontier is final.
	k.hs.lap(stageFreeRunTail)
	k.final = true
	// Finish fails only for a declined recording, which is no error of
	// Record's: its replays fail, and their cells run from scratch.
	k.rec.Finish()
}

// replayKernel re-issues a recorded run's structure — regions,
// barriers, serial sections and phase hooks — feeding every CPU its
// logged charges and misses. rd holds the next structural step and each
// CPU log's next record. Once the read aborts (err), every call does
// nothing.
type replayKernel struct {
	s   *Stream
	m   *machine.Machine
	rd  *machine.StreamReader
	err error
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
// call, parking until the recording has published them.
func (k *replayKernel) replay(t *omp.Team, h *Hooks) {
	if k.m.PT.WriteTracking() {
		// Stores that hit in a cache are not in the log.
		panic("nas: stream replay cannot track writes")
	}
	for k.err == nil {
		op, err := k.rd.Op()
		if err != nil {
			k.err = err
			return
		}
		switch op.Kind {
		case machine.OpReturn:
			return
		case machine.OpSerial:
			k.rd.Replay(k.m.CPU(op.CPU))
		case machine.OpPhaseEnter:
			h.PhaseEnter(k.m.CPU(op.CPU))
		case machine.OpPhaseExit:
			h.PhaseExit(k.m.CPU(op.CPU))
		case machine.OpRegion:
			// Each member replays its share up to every barrier; no
			// lane runs it (omp.Team.ParallelSteps).
			t.ParallelSteps(op.Name, k.rd.Replay)
		}
	}
}
