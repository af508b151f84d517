package nas

import (
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
// recording is therefore always a full run, and the steady and plain
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
// could not be recorded. It is immutable once built, so concurrent
// replays may share it.
type Stream struct {
	// Result is the recording's own result: the canonical cell's, from a
	// full simulation.
	Result Result
	// Declined, when non-empty, names the construct that made the run
	// unreplayable (an EventSet, a critical section, a dynamic schedule
	// or write tracking); such a stream holds no log.
	Declined string

	key       string // Fingerprint of the canonical cell
	log       *machine.Stream
	name      string
	iters     int
	hasPhase  bool
	hot       [][2]uint64
	heapPages uint64
}

// RecordStream runs cfg's canonical stream cell with a recorder attached
// and returns the stream. cfg must have a stream fingerprint. When cfg
// is the canonical cell itself, its HostStages sink receives the
// recording's stages, since the recording is that cell's run.
func RecordStream(build Builder, cfg Config) (*Stream, error) {
	if _, ok := cfg.StreamFingerprint(); !ok {
		return nil, fmt.Errorf("nas: config without a stream fingerprint (traced, sampled or tweaked) cannot be recorded")
	}
	s := &Stream{}
	own, _ := cfg.Fingerprint()
	cfg = cfg.streamCell()
	s.key, _ = cfg.Fingerprint()
	if own != s.key {
		cfg.HostStages = nil
	}
	var rec *machine.Recorder
	var k Kernel
	res, err := Run(func(m *machine.Machine, class Class, scale int, seed uint64) Kernel {
		k = build(m, class, scale, seed)
		s.heapPages = m.AllocatedPages()
		rec = machine.NewRecorder(m)
		m.SetRecorder(rec)
		return recordingKernel{k, m}
	}, cfg)
	if err != nil {
		return nil, err
	}
	s.Result = res
	if s.Declined = rec.Declined(); s.Declined != "" {
		return s, nil
	}
	if s.log, err = rec.Finish(); err != nil {
		return nil, err
	}
	s.name, s.iters, s.hasPhase, s.hot = k.Name(), k.DefaultIterations(), k.HasPhase(), k.HotPages()
	return s, nil
}

// Bytes returns the size of the stream's per-CPU logs.
func (s *Stream) Bytes() int {
	if s.log == nil {
		return 0
	}
	return s.log.Bytes()
}

// Recorded reports whether cfg is the stream's canonical cell, the one
// Result already answers.
func (s *Stream) Recorded(cfg Config) bool {
	fp, ok := cfg.Fingerprint()
	return ok && fp == s.key
}

// Replay runs cfg against the stream: Run with a kernel that replays the
// log. cfg must have the stream's fingerprint; the Result is
// bit-identical to Run on the real kernel.
func (s *Stream) Replay(cfg Config) (Result, error) {
	if s.log == nil {
		return Result{}, fmt.Errorf("nas: stream declined (%s); nothing to replay", s.Declined)
	}
	if key, ok := cfg.StreamFingerprint(); !ok || key != "stream\x00"+s.key {
		return Result{}, fmt.Errorf("nas: config stream %q does not match recorded stream %q", key, s.key)
	}
	return Run(s.build, cfg)
}

// build is the replay's Builder: it allocates the recorded heap, so
// AllocatedPages and the hot page spans match the real kernel's.
func (s *Stream) build(m *machine.Machine, _ Class, _ int, _ uint64) Kernel {
	if s.heapPages > 0 {
		m.Alloc(int(s.heapPages << m.PageShift()))
	}
	return &replayKernel{s: s, m: m, rd: s.log.NewReader()}
}

// recordingKernel marks the end of every InitTouch and Step call in the
// stream, so the replay kernel knows where each call's steps stop.
type recordingKernel struct {
	Kernel
	m *machine.Machine
}

func (k recordingKernel) InitTouch(t *omp.Team) {
	k.Kernel.InitTouch(t)
	k.mark()
}

func (k recordingKernel) Step(t *omp.Team, h *Hooks) {
	k.Kernel.Step(t, h)
	k.mark()
}

func (k recordingKernel) mark() {
	if rec := k.m.Recorder(); rec != nil {
		rec.Mark(machine.OpReturn, nil)
	}
}

// replayKernel re-issues a recorded run's structure — regions,
// barriers, serial sections and phase hooks — feeding every CPU its
// logged charges and misses.
type replayKernel struct {
	s  *Stream
	m  *machine.Machine
	rd *machine.StreamReader
	op int // next step of s.log.Ops
}

func (k *replayKernel) Name() string           { return k.s.name }
func (k *replayKernel) DefaultIterations() int { return k.s.iters }
func (k *replayKernel) HasPhase() bool         { return k.s.hasPhase }
func (k *replayKernel) HotPages() [][2]uint64  { return k.s.hot }

// Reinit has nothing to restore: the replay holds no numerics.
func (k *replayKernel) Reinit() {}

// Verify returns the recording's verdict: the numerics do not depend on
// placement, engines or extrapolation.
func (k *replayKernel) Verify() error { return k.s.Result.VerifyErr }

func (k *replayKernel) InitTouch(t *omp.Team) { k.replay(t, nil) }

// Step replays one timestep. In free-run mode (the tail after an
// extrapolation) it returns at once: the replay has no numerics to
// advance, and Verify already knows the answer.
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
	ops := k.s.log.Ops
	for {
		op := ops[k.op]
		k.op++
		switch op.Kind {
		case machine.OpReturn:
			k.rd.ReplayCaches(k.m)
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
