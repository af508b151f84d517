package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"

	"upmgo"
)

// recorder is a repetition's OnEvent sink. It collects the cell reports
// and, on the traced repetition, spans from the harness side of the
// layer boundaries: one per Sweep call, one per cell (from its start and
// done events) and one per host stage inside it.
type recorder struct {
	attempted int
	failed    []string
	reports   []*upmgo.CellReport
	simHost   []float64
	simulated map[string]*upmgo.CellReport // memo key -> simulating run's report

	traced bool
	t0     time.Time
	spans  []span
	starts map[int]time.Time // batch index -> start, for the current sweep
	lanes  map[int]int       // batch index -> lane, for the current sweep
	busy   []bool            // lanes in use; lane 0 holds the sweep spans
}

// span is one Chrome trace_event "complete" event.
type span struct {
	name, cat  string
	start, dur time.Duration // start is relative to the repetition's start
	lane       int
	args       map[string]any
}

func newRecorder(traced bool) *recorder {
	return &recorder{simulated: map[string]*upmgo.CellReport{}, traced: traced, t0: time.Now()}
}

// beginSweep resets the per-batch span state: batch indexes restart at
// zero with every Sweep call.
func (rc *recorder) beginSweep() {
	rc.starts, rc.lanes, rc.busy = map[int]time.Time{}, map[int]int{}, []bool{true}
}

func (rc *recorder) span(name, cat string, start time.Time, d time.Duration, lane int, args map[string]any) {
	if rc.traced {
		rc.spans = append(rc.spans, span{name, cat, start.Sub(rc.t0), d, lane, args})
	}
}

// event records one cell event. The runner serialises OnEvent calls.
func (rc *recorder) event(ev upmgo.SweepEvent) {
	now := time.Now()
	if !ev.Done {
		if rc.traced {
			lane := 1
			for lane < len(rc.busy) && rc.busy[lane] {
				lane++
			}
			if lane == len(rc.busy) {
				rc.busy = append(rc.busy, false)
			}
			rc.busy[lane] = true
			rc.starts[ev.Index], rc.lanes[ev.Index] = now, lane
		}
		return
	}
	rc.attempted++
	rep := ev.Report
	if ev.Err != nil {
		rc.failed = append(rc.failed, fmt.Sprintf("%s %s: %v", ev.Spec.Bench, ev.Spec.Config.Label(), ev.Err))
	}
	rc.reports = append(rc.reports, rep)
	if ev.Err == nil && rep.Source == upmgo.CellSourceSimulated {
		rc.simHost = append(rc.simHost, rep.HostSeconds)
		if key, ok := ev.Spec.Key(); ok {
			rc.simulated[key] = rep
		}
	}
	if !rc.traced {
		return
	}
	start, lane := rc.starts[ev.Index], rc.lanes[ev.Index]
	rc.busy[lane] = false
	rc.span(rep.Bench+" "+rep.Label, "cell", start, now.Sub(start), lane,
		map[string]any{"source": rep.Source, "kind": rep.Kind, "class": rep.Class})
	// Stages carry durations, not timestamps: lay them end to end from the
	// cell's start in execution order. Durations are exact, offsets are
	// approximate.
	at := start
	rep.Stages.Each(func(name string, s float64) {
		if s > 0 {
			d := time.Duration(s * float64(time.Second))
			rc.span(name, "stage", at, d, lane, nil)
			at = at.Add(d)
		}
	})
}

// writeChrome writes the spans as a Chrome trace_event JSON file
// (chrome://tracing, Perfetto).
func (rc *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	evs := make([]event, len(rc.spans))
	for i, s := range rc.spans {
		evs[i] = event{s.name, s.cat, "X", float64(s.start) / 1e3, float64(s.dur) / 1e3, 1, s.lane, s.args}
	}
	return writeJSON(path, map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

// foldProfile folds a CPU profile by package into per-layer self-time
// shares, using `go tool pprof -traces`. A sample belongs to the first
// frame, walking up from the leaf, in a layer: an upmgo package (named
// after its directory under internal/, "nas.bt" for internal/nas/bt),
// the harness itself ("bench") or the Go runtime ("runtime": GC,
// allocation, scheduling). Other standard-library frames (math, sync,
// encoding/json, ...) fold into their caller. attributed is the share
// of samples that reached a layer.
func foldProfile(path string) (shares map[string]float64, attributed float64, err error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	byLayer := map[string]time.Duration{}
	var total time.Duration
	var value time.Duration // the current sample block's value; -1 once attributed
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "-----------+") {
			value = 0
			continue
		}
		frame := line
		if value == 0 {
			// The first line of a block is "<value> <leaf frame>".
			v, rest, ok := strings.Cut(line, " ")
			d, perr := time.ParseDuration(v)
			if !ok || perr != nil {
				continue // header lines before the first block
			}
			value, frame = d, strings.TrimSpace(rest)
			total += d
		}
		if value < 0 {
			continue
		}
		if layer, ok := layerOf(frame); ok {
			byLayer[layer] += value
			value = -1
		}
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("profile %s holds no samples", path)
	}
	shares = map[string]float64{}
	var named time.Duration
	for l, d := range byLayer {
		shares[l] = float64(d) / float64(total)
		named += d
	}
	return shares, float64(named) / float64(total), nil
}

// layerOf maps a pprof frame ("upmgo/internal/nas/bt.(*BT).xSolve.func1")
// to its layer.
func layerOf(frame string) (string, bool) {
	frame = strings.TrimSuffix(frame, " (inline)")
	slash := strings.LastIndex(frame, "/")
	dot := strings.Index(frame[slash+1:], ".")
	if dot < 0 {
		return "", false
	}
	pkg := frame[:slash+1+dot]
	switch {
	case pkg == "runtime":
		return "runtime", true
	case pkg == "main":
		return "bench", true
	case pkg == "upmgo":
		return "upmgo", true
	case strings.HasPrefix(pkg, "upmgo/internal/"):
		return strings.ReplaceAll(strings.TrimPrefix(pkg, "upmgo/internal/"), "/", "."), true
	}
	return "", false
}

// layerShare sums the shares of a layer and its sub-layers ("nas"
// includes "nas.bt").
func layerShare(shares map[string]float64, layer string) float64 {
	var s float64
	for l, v := range shares {
		if l == layer || strings.HasPrefix(l, layer+".") {
			s += v
		}
	}
	return s
}
