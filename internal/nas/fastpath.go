package nas

import (
	"fmt"
	"time"
)

// FastPath reports — when the steady-state machinery was armed but the
// tail was still simulated in full — a typed diagnosis of why it
// declined; Result.SteadyAt and ExtrapolatedIters say what engaged. It is
// host-side metadata: populated from the same observations the run makes
// anyway, charging zero virtual time, and excluded from the Result's JSON
// form so store records and job-API payloads are byte-identical with or
// without it. The JSON tag below exists for the *telemetry* surfaces
// (exp.CellReport, the sweepd events stream), which serialise the report
// deliberately.
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

// HostStages splits one run's host wall-clock cost by stage. A run
// fills the stages it executes when Config.HostStages points here; the
// remaining fields stay zero (a store-recalled cell charges only exp's
// store probe, which is not a stage of the run).
// Timing is pure observation: no time.Now call is made unless the sink
// is attached, and nothing simulated reads the values, so armed and
// unarmed runs are bit-identical in every virtual quantity.
type HostStages struct {
	// Record: recording the benchmark's shared L2-miss stream (charged
	// by exp to the cell that led it), or, for a cell that replays it,
	// the time parked at the recording's frontier, which Prefix and
	// TimedLoop leave out.
	Record time.Duration `json:"record,omitempty"`
	// Prefix: the engine-independent cold start (machine build, init
	// touch, cold iteration, reset).
	Prefix time.Duration `json:"prefix,omitempty"`
	// Fork: cloning a prefix snapshot and rebuilding the kernel on it
	// (Prefix.RunFromSnapshot; the sweep runner does not fork).
	Fork time.Duration `json:"fork,omitempty"`
	// TimedLoop: the simulated iterations of the timed main loop.
	TimedLoop time.Duration `json:"timed_loop,omitempty"`
	// Extrapolate: applying the proven delta analytically.
	Extrapolate time.Duration `json:"extrapolate,omitempty"`
	// FreeRunTail: re-executing remaining steps in free-run mode for the
	// numerics (the extrapolation tail).
	FreeRunTail time.Duration `json:"free_run_tail,omitempty"`
	// Verify: the numerical check.
	Verify time.Duration `json:"verify,omitempty"`
}

// Sum returns the total host time attributed to named stages.
func (h *HostStages) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return h.Record + h.Prefix + h.Fork + h.TimedLoop + h.Extrapolate + h.FreeRunTail + h.Verify
}
