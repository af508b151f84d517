package nas

import (
	"fmt"
	"time"
)

// FastPath is the fast-path field of a cell's telemetry report
// (exp.CellReport, the sweepd events stream): when the steady-state
// machinery was armed but the tail was still simulated in full, the
// typed diagnosis of why it declined, which the run left in its
// HostStages sink. Result.SteadyAt and ExtrapolatedIters say what
// engaged.
type FastPath struct {
	// WhyNot explains why fast-forwarding declined. Nil when it engaged
	// (Result.ExtrapolatedIters > 0), or when SteadyState was never armed.
	WhyNot *WhyNot `json:"why_not,omitempty"`
}

// WhyNotReason classifies why the steady-state fast-forward declined.
type WhyNotReason string

const (
	// WhyNotSampler: a metrics sampler was attached; it must see every
	// iteration simulated, so the detector never arms.
	WhyNotSampler WhyNotReason = "sampler_attached"
	// WhyNotDetectionOnly: the orbit was proven but Config.Extrapolate
	// was off, so the run kept simulating by request.
	WhyNotDetectionOnly WhyNotReason = "detection_only"
	// WhyNotNoTail: the orbit was proven on the final iteration; there
	// was nothing left to fast-forward.
	WhyNotNoTail WhyNotReason = "no_tail"
	// WhyNotLoopTooShort: the timed loop ended before the detector could
	// have confirmed an orbit (fewer than window+1 observed iterations).
	WhyNotLoopTooShort WhyNotReason = "loop_too_short"
	// WhyNotPerturbed: a scheduler perturbation (Config.PerturbAt) broke
	// or delayed the orbit and it never re-closed in the iterations that
	// remained.
	WhyNotPerturbed WhyNotReason = "perturbed"
	// WhyNotHomesMoving: the page-home map never went stationary — an
	// ongoing migration campaign (the incompressible kmig cells).
	WhyNotHomesMoving WhyNotReason = "homes_moving"
	// WhyNotAperiodic: no counter delta repeated the one before it long
	// enough: the reference string is aperiodic, or repeats only over
	// more than one iteration.
	WhyNotAperiodic WhyNotReason = "aperiodic"
)

// WhyNot is the typed diagnosis behind a declined fast-forward: the
// reason plus the supporting evidence the detector gathered while
// failing — how close it came, the first counter that refused to
// repeat, and the perturbation or home-map motion that broke the orbit.
type WhyNot struct {
	Reason WhyNotReason `json:"reason"`
	// BestStreak is the longest run of deltas that each equalled the one
	// before them, against the NeededStreak (window−1) that would have
	// fired.
	BestStreak   int `json:"best_streak,omitempty"`
	NeededStreak int `json:"needed_streak,omitempty"`
	// FirstDivergent names the first counter whose delta broke the most
	// recent comparison — "page_homes" when the
	// page-home hash itself moved, else the name of a counter in the
	// detector's table (e.g. "cpu3_remote_mem", "kmig_scans").
	FirstDivergent string `json:"first_divergent,omitempty"`
	// Observed is the number of timed iterations the detector saw.
	Observed int `json:"observed,omitempty"`
	// HomeMoves counts observed iterations whose page-home hash differed
	// from the previous one — nonzero while a migration campaign runs.
	HomeMoves int `json:"home_moves,omitempty"`
	// PerturbIter echoes Config.PerturbAt for reason "perturbed".
	PerturbIter int `json:"perturb_iter,omitempty"`
}

// String renders the diagnosis as one human-readable sentence — the
// replacement for the ad-hoc explanation cmd/nasbench used to assemble.
func (w *WhyNot) String() string {
	if w == nil {
		return ""
	}
	switch w.Reason {
	case WhyNotSampler:
		return "metrics sampler attached: every iteration must be simulated to be sampled"
	case WhyNotDetectionOnly:
		return "steady orbit proven but extrapolation not requested"
	case WhyNotNoTail:
		return "steady orbit proven on the final iteration: no tail left to fast-forward"
	case WhyNotLoopTooShort:
		return fmt.Sprintf("timed loop too short: %d iterations observed, a steady orbit needs %d", w.Observed, w.NeededStreak+2)
	case WhyNotPerturbed:
		return fmt.Sprintf("scheduler perturbation at iteration %d broke the orbit and it never re-closed (best streak %d/%d)",
			w.PerturbIter, w.BestStreak, w.NeededStreak)
	case WhyNotHomesMoving:
		return fmt.Sprintf("page-home map kept moving (%d of %d iterations): an ongoing migration campaign",
			w.HomeMoves, w.Observed)
	case WhyNotAperiodic:
		return fmt.Sprintf("counter deltas never repeated: %s diverged (best streak %d/%d)",
			w.FirstDivergent, w.BestStreak, w.NeededStreak)
	}
	return string(w.Reason)
}

// HostStages is one run's host-side record: its host wall-clock cost
// split by stage, and, when the steady-state machinery was armed but
// never fast-forwarded, the typed diagnosis of why. A run fills the
// stages it executes when Config.HostStages points here; the remaining
// fields stay zero (a store-recalled cell charges only exp's store
// probe, which is not a stage of the run). A lap cursor times the
// stages: each boundary closes the stage the run was in and opens the
// next, so every span from Run's entry to its return lands in exactly
// one stage. Filling it is pure observation: without a sink no clock is
// read, and nothing simulated reads the values, so armed and unarmed
// runs are bit-identical in every virtual quantity.
type HostStages struct {
	// Record: recording the benchmark's shared L2-miss stream (charged
	// by exp to the cell that led it), or, for a cell that replays it,
	// the time parked at the recording's frontier.
	Record time.Duration `json:"record,omitempty"`
	// Prefix: the engine-independent cold start (machine build, init
	// touch, cold iteration, reset), from Run's entry to the end of the
	// cold start.
	Prefix time.Duration `json:"prefix,omitempty"`
	// Fork: cloning a prefix snapshot and rebuilding the kernel on it
	// (Prefix.RunFromSnapshot; the sweep runner does not fork).
	Fork time.Duration `json:"fork,omitempty"`
	// TimedLoop: arming the engines and the simulated iterations of the
	// timed main loop, with the loop's end when nothing follows it.
	TimedLoop time.Duration `json:"timed_loop,omitempty"`
	// Extrapolate: applying the proven delta analytically.
	Extrapolate time.Duration `json:"extrapolate,omitempty"`
	// FreeRunTail: re-executing remaining steps in free-run mode for the
	// numerics: the extrapolation tail, or, charged by exp to the cell
	// that led a stream, the stream's verdict, the recording's run past
	// its final frontier, Verify included.
	FreeRunTail time.Duration `json:"free_run_tail,omitempty"`
	// Verify: the numerical check, and the run's end after it.
	Verify time.Duration `json:"verify,omitempty"`

	// WhyNot explains why the steady-state fast-forward declined; nil
	// when it engaged, or when Config.SteadyState was off.
	WhyNot *WhyNot `json:"why_not,omitempty"`

	at    stage     // the stage the cursor is in
	since time.Time // when it opened
}

// stage names one of HostStages' durations, the unit the lap cursor
// moves by.
type stage uint8

const (
	stageNone stage = iota // the cursor is stopped
	stageRecord
	stagePrefix
	stageFork
	stageTimedLoop
	stageExtrapolate
	stageFreeRunTail
	stageVerify
)

// lap closes the stage the cursor is in, charging it the time since it
// opened, opens next and returns the stage it closed. On a nil sink it
// does nothing and reads no clock.
func (h *HostStages) lap(next stage) stage {
	if h == nil {
		return stageNone
	}
	now := time.Now()
	if d := h.field(h.at); d != nil {
		*d += now.Sub(h.since)
	}
	prev := h.at
	h.at, h.since = next, now
	return prev
}

// field returns the duration s charges, nil for stageNone.
func (h *HostStages) field(s stage) *time.Duration {
	switch s {
	case stageRecord:
		return &h.Record
	case stagePrefix:
		return &h.Prefix
	case stageFork:
		return &h.Fork
	case stageTimedLoop:
		return &h.TimedLoop
	case stageExtrapolate:
		return &h.Extrapolate
	case stageFreeRunTail:
		return &h.FreeRunTail
	case stageVerify:
		return &h.Verify
	}
	return nil
}
