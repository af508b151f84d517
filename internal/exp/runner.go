package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"upmgo/internal/machine"
	"upmgo/internal/metrics"
	"upmgo/internal/nas"
	"upmgo/internal/store"
	"upmgo/internal/trace"
)

// CellSpec names one figure/table cell: a benchmark and the exact
// configuration of its run. Every cell is an independent simulation on
// its own Machine, which is what makes the sweep embarrassingly
// parallel on the host.
type CellSpec struct {
	Bench  string
	Config nas.Config
}

// Key returns the cell's memoization key. The second result is false
// when the config cannot be canonically fingerprinted (see
// nas.Config.Fingerprint); such cells always simulate.
func (s CellSpec) Key() (string, bool) {
	fp, ok := s.Config.Fingerprint()
	if !ok {
		return "", false
	}
	return s.Bench + "\x00" + fp, true
}

// Event is one progress notification from a Runner: each cell emits one
// event when it starts and one when it finishes.
type Event struct {
	Spec  CellSpec
	Index int  // position of the cell in the batch (presentation order)
	Total int  // number of cells in the batch
	Done  bool // false: cell started; true: cell finished
	// The remaining fields are set on finished events only.
	Err error
	// Steady-state accounting of the finished cell, copied from its
	// Result (zero when the cell simulated every iteration): the
	// iteration the detector fired at and the iterations covered by
	// detector extrapolation. cmd/sweep aggregates these into its -steady
	// summary line.
	SteadyAt          int
	ExtrapolatedIters int
	// Report is the cell's host-side telemetry record: provenance,
	// fast-path kind, host and virtual seconds, host time by stage. Never
	// nil on a finished event. Aggregate with BuildSweepReport.
	Report *CellReport
}

// Runner executes batches of cells on a bounded host worker pool. The
// zero value runs with GOMAXPROCS workers and no memoization across
// batches; it is a plain options struct and may be copied freely.
//
// Output ordering is deterministic: results come back in spec
// (presentation) order regardless of completion order, so rendered
// figures are byte-stable across Jobs values. The Jobs level never
// influences a cell's numbers — each cell simulates on its own Machine,
// and the simulator is bit-reproducible at every team width.
type Runner struct {
	// Jobs bounds the number of goroutines that simulate at once: cells,
	// and each stream's task, one run that records the stream and then
	// produces its verdict (nas.Stream.Record). A cell parked at its
	// recording's frontier, or waiting on an in-flight duplicate or on
	// its stream's verdict, holds no slot meanwhile. 0 or negative means
	// runtime.GOMAXPROCS(0).
	Jobs int
	// Cache, when non-nil, memoizes completed cells within and across
	// batches.
	Cache *Cache
	// OnEvent, when non-nil, receives per-cell progress events. Calls
	// are serialized by the runner, so the callback needs no locking.
	OnEvent func(Event)
	// TraceDir, when non-empty, attaches a fresh trace recorder to every
	// cell and writes, per cell, a Chrome trace_event JSON
	// (<bench>-<label>-class<C>.trace.json, loadable in about:tracing or
	// Perfetto) and a text summary (.summary.txt) into the directory.
	// Traced configs are never memoizable (see nas.Config.Fingerprint),
	// so every cell simulates fresh, bypassing the Cache.
	TraceDir string
	// MetricsDir, when non-empty, attaches a fresh metrics.Sampler (with
	// per-iteration heatmaps) to every cell and writes its virtual-time
	// series into the directory as <bench>-<label>-class<C>.metrics.json
	// / .metrics.csv / .prom. Sampled configs are never memoizable (see
	// nas.Config.Fingerprint), so every cell simulates fresh, bypassing
	// the Cache and the miss streams.
	MetricsDir string
	// MetricsRegistry, when non-nil, attaches a sampler to every cell
	// that publishes the cell's latest iteration sample as live labelled
	// gauges (page residency per node, local/remote refs, migrations) —
	// the data behind cmd/sweep's -metrics-addr endpoint. Like
	// MetricsDir, it disables memoization for the batch.
	MetricsRegistry *metrics.Registry
}

// Cells runs one batch of cell specs and returns their cells in spec
// order. On error it returns the first failing cell's error in
// presentation order (not completion order) and abandons cells that
// have not started. Cancelling ctx stops the batch promptly — no new
// cell starts, recordings and verdicts stop before their next step,
// replays at their next wait, and cells simulating from scratch run to
// completion — and Cells returns ctx.Err().
//
// The miss streams the cells replay are the batch's working state: each
// is recorded at most once per batch and dropped when Cells returns.
// Only the cells' results outlive the batch, in the Cache. Cells that
// should share a stream therefore belong to one batch (Sweeps); they
// replay it behind the recording. No cell finishes, enters the Cache or
// reaches its store before its stream's verdict has arrived, and a
// failing verdict fails every cell that replayed the stream.
func (r Runner) Cells(ctx context.Context, specs []CellSpec) ([]Cell, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, nil
	}
	// Create the output directories once per batch, not once per cell:
	// concurrent per-cell MkdirAll calls are redundant syscalls, and
	// failing before any simulation starts beats failing mid-sweep.
	for _, dir := range []string{r.TraceDir, r.MetricsDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
		}
	}
	jobs := r.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}

	var emitMu sync.Mutex
	emit := func(ev Event) {
		if r.OnEvent == nil {
			return
		}
		emitMu.Lock()
		defer emitMu.Unlock()
		r.OnEvent(ev)
	}

	// cctx stops dispatching on the first failure; the caller's ctx is
	// consulted afterwards so an internal abort is not mistaken for an
	// external cancellation.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Each cell runs on a goroutine of its own, started in dispatch
	// order once a slot is free; it holds the slot while it simulates.
	b := &batch{sem: make(chan struct{}, jobs)}
	cells := make([]Cell, len(specs))
	errs := make([]error, len(specs))
	ids := r.identify(specs)
	for _, i := range dispatchOrder(ids) {
		sl := &slot{sem: b.sem}
		if sl.acquire(cctx) != nil {
			break
		}
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			defer sl.release()
			spec := specs[i]
			emit(Event{Spec: spec, Index: i, Total: len(specs)})
			c, rep, err := r.runCell(cctx, b, sl, spec, ids[i])
			cells[i], errs[i] = c, err
			emit(Event{Spec: spec, Index: i, Total: len(specs), Done: true, Err: err,
				SteadyAt: c.Result.SteadyAt, ExtrapolatedIters: c.Result.ExtrapolatedIters,
				Report: rep})
			if err != nil {
				cancel()
			}
		}()
	}
	b.wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The internal abort cancels cctx, so cells that were merely waiting
	// on the cache report context.Canceled; the failure that caused the
	// abort is the error worth reporting. Prefer it in presentation
	// order, falling back to a bare cancellation if that is all there is.
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return nil, err
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// batch is one Cells call's shared state: the miss streams its cells
// replay, the job slots and every goroutine it started, stream tasks
// included.
type batch struct {
	streams flights[streamID, *nas.Stream]
	sem     chan struct{}
	wg      sync.WaitGroup
}

// cellID is a cell's identity, computed once per batch before dispatch
// (Runner.identify) and carried to the cell: its memo key, CellSpec.Key,
// and the miss stream it replays. key is empty when the cell cannot be
// memoized.
type cellID struct {
	key    string
	stream streamID
}

// streamID names a miss stream within a batch: the benchmark and its
// cells' nas.Config.StreamFingerprint.
type streamID struct{ bench, fp string }

// identify returns each spec's identity. A cell the runner traces or
// samples has none: its events must be emitted, so it never memoizes
// (see nas.Config.Fingerprint).
func (r Runner) identify(specs []CellSpec) []cellID {
	ids := make([]cellID, len(specs))
	if r.TraceDir != "" || r.MetricsDir != "" || r.MetricsRegistry != nil {
		return ids
	}
	for i, spec := range specs {
		if key, ok := spec.Key(); ok {
			fp, _ := spec.Config.StreamFingerprint()
			ids[i] = cellID{key, streamID{spec.Bench, fp}}
		}
	}
	return ids
}

// record runs s's stream task (nas.Stream.Record) on a goroutine of its
// own that holds one slot throughout: the recording, then straight away,
// in the same run, its verdict, the only chain of work a stream
// serialises. Record charges the recording's host time to task as Record
// and the verdict's as FreeRunTail. Cells replay behind the recording on
// slots of their own (replayCell). It gives up when ctx ends, before or
// between steps, and the stream then fails with ctx's error.
func (b *batch) record(ctx context.Context, s *nas.Stream, task *nas.HostStages) {
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		sl := &slot{sem: b.sem}
		defer sl.release()
		// acquire fails only once ctx has ended, which Record reports.
		sl.acquire(ctx)
		// Record's error is the stream's, which its cells report.
		_ = s.Record(ctx, task)
	}()
}

// dispatchOrder returns the order in which cells start: each stream's
// first cell, so every recording starts as early as it can; then the
// first cell of every other memo key and the unmemoizable cells; then
// the repeats, which recall (or, without a Cache, replay again) a cell
// already dispatched. A repeat, which may wait on its in-flight
// duplicate, therefore starts only once no first occurrence is left.
// Results keep presentation order whatever this order is.
func dispatchOrder(ids []cellID) []int {
	var leaders, firsts, repeats []int
	streams, keys := map[streamID]bool{}, map[string]bool{}
	for i, id := range ids {
		switch {
		case id.key == "":
			firsts = append(firsts, i)
		case keys[id.key]:
			repeats = append(repeats, i)
		case !streams[id.stream]:
			streams[id.stream], keys[id.key] = true, true
			leaders = append(leaders, i)
		default:
			keys[id.key] = true
			firsts = append(firsts, i)
		}
	}
	return slices.Concat(leaders, firsts, repeats)
}

// runCell executes or recalls one cell. A memoizable cell replays its
// benchmark's L2-miss stream, recorded once per batch; steady cells
// replay it too, their detector reading the cache counters the log
// keeps. Cells that cannot be memoized (Tweak, tracing, metrics) and
// cells whose recording declined simulate from scratch with nas.Run, the
// reference the replay is proven bit-identical to. sl is the cell's job
// slot, held on entry; id its identity.
//
// The returned CellReport (never nil) is the cell's host-side record,
// filled in place as the cell is served: its provenance, the run's host
// stages and why-not, and its host time. The HostStages sink rides on
// the Config but is observation-only: it is outside the fingerprint,
// charges no virtual time, and leaves the cell bit-identical to an
// uninstrumented run.
func (r Runner) runCell(ctx context.Context, b *batch, sl *slot, spec CellSpec, id cellID) (Cell, *CellReport, error) {
	start := time.Now()
	hs := &nas.HostStages{}
	rep := &CellReport{Bench: spec.Bench, Label: spec.Config.Label(),
		Class: spec.Config.Class.String(), Source: SourceSimulated}
	spec.Config.HostStages = hs
	if r.TraceDir != "" {
		spec.Config.Tracer = trace.NewRecorder()
	}
	if r.MetricsDir != "" || r.MetricsRegistry != nil {
		spec.Config.Metrics = metrics.NewSampler(metrics.Options{
			Heatmap:  r.MetricsDir != "",
			Registry: r.MetricsRegistry,
			Cell:     cellBase(spec),
		})
	}
	var c Cell
	var err error
	if id.key != "" {
		rep.Address = store.Address(id.key)
	}
	switch {
	case id.key != "" && r.Cache != nil:
		c, err = r.Cache.cell(ctx, spec.Bench, id.key, sl, func() (Cell, error) {
			return replayCell(ctx, b, sl, spec, id.stream, rep)
		}, rep)
	case id.key != "":
		c, err = replayCell(ctx, b, sl, spec, id.stream, rep)
	default:
		if r.Cache != nil {
			r.Cache.noteScratch()
		}
		c, err = run(spec.Bench, spec.Config)
		if err == nil && r.TraceDir != "" {
			err = r.writeTrace(spec, spec.Config.Tracer.(*trace.Recorder))
		}
		if err == nil && r.MetricsDir != "" {
			err = r.writeMetrics(spec, spec.Config.Metrics)
		}
	}
	rep.finish(c, hs, time.Since(start))
	return c, rep, err
}

// replayCell answers spec by replaying its miss stream, stream, from the
// batch's streams. The stream's first cell in the batch leads it: it
// starts the stream task (batch.record) and reports the recording. Every
// placement, engine and steady-state variant of the stream, the leader
// included, replays the one recording behind the recorder, call by call
// as the recording publishes its log; a cell parked at the frontier
// gives its slot back and charges the wait to the record stage. A replay
// waits for the stream's verdict only once nas.Run has returned, again
// without its slot; the wait is charged to the verify stage. The verdict
// is the stream task's own: its run goes on past the final frontier,
// through the free-run steps and Verify. The leader also charges the
// stream task's host time, the recording to record and the verdict to
// free_run_tail. When the recording declined, the cell runs from
// scratch and rep carries the reason.
func replayCell(ctx context.Context, b *batch, sl *slot, spec CellSpec, stream streamID, rep *CellReport) (Cell, error) {
	builder, ok := Builder(spec.Bench)
	if !ok {
		return Cell{}, fmt.Errorf("exp: %w: %q", ErrUnknownBenchmark, spec.Bench)
	}
	var task *nas.HostStages // the stream task's, when this cell leads
	s, _, err := b.streams.do(ctx, stream, nil, func() (*nas.Stream, error) {
		s, err := nas.NewStream(builder, spec.Config)
		if err == nil {
			task = &nas.HostStages{}
			b.record(ctx, s, task)
		}
		return s, err
	})
	if err != nil {
		return Cell{}, fmt.Errorf("exp: %s %s: %w", spec.Bench, spec.Config.Label(), err)
	}
	res, err := s.ReplayUnjudged(spec.Config, func(ready <-chan struct{}) error {
		sl.release()
		select {
		case <-ready:
		case <-ctx.Done():
			return ctx.Err()
		}
		return sl.acquire(ctx)
	})
	declined := errors.Is(err, machine.ErrDeclined)
	if err != nil && !declined {
		return Cell{}, fmt.Errorf("exp: %s %s: %w", spec.Bench, spec.Config.Label(), err)
	}
	// The recording has ended: the replay returns only then.
	rep.ReplayDeclined = s.Declined
	if task != nil {
		size := s.Size()
		rep.Recording, rep.Stored = &s.Compression, &size
	}
	if declined {
		rep.chargeTask(task)
		return run(spec.Bench, spec.Config)
	}
	rep.Replayed = true
	// The verdict wait starts with giving the slot back: the release can
	// wake another goroutine that takes this one's CPU.
	t1 := time.Now()
	sl.release()
	if err := s.Judge(ctx, &res); err != nil {
		return Cell{}, fmt.Errorf("exp: %s %s: %w", spec.Bench, spec.Config.Label(), err)
	}
	rep.Stages.Verify += time.Since(t1).Seconds()
	rep.chargeTask(task)
	if res.VerifyErr != nil {
		return Cell{}, fmt.Errorf("exp: %s %s failed verification: %w", spec.Bench, spec.Config.Label(), res.VerifyErr)
	}
	return Cell{Bench: spec.Bench, Label: res.Label, Result: res}, nil
}

// cellBase is a cell's canonical file/label stem, shared by the trace
// and metrics writers: "<bench>-<label>-class<C>[-x<scale>]".
func cellBase(spec CellSpec) string {
	base := fmt.Sprintf("%s-%s-class%s", strings.ToLower(spec.Bench),
		spec.Config.Label(), spec.Config.Class)
	if spec.Config.ComputeScale > 1 {
		base += fmt.Sprintf("-x%d", spec.Config.ComputeScale)
	}
	return base
}

// writeTrace dumps one traced cell's Chrome trace and text summary. The
// directory exists: Cells creates it before the batch starts.
func (r Runner) writeTrace(spec CellSpec, rec *trace.Recorder) error {
	base := cellBase(spec)
	events := rec.Events()

	tf, err := os.Create(filepath.Join(r.TraceDir, base+".trace.json"))
	if err != nil {
		return err
	}
	if err := trace.WriteChromeTrace(tf, events); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}

	sf, err := os.Create(filepath.Join(r.TraceDir, base+".summary.txt"))
	if err != nil {
		return err
	}
	trace.WriteSummary(sf, trace.Summarize(events))
	return sf.Close()
}

// writeMetrics dumps one sampled cell's time series in all three export
// formats: the JSON interchange form (heatmaps included), a flat CSV,
// and a Prometheus text snapshot of the final sample.
// The directory exists: Cells creates it before the batch starts.
func (r Runner) writeMetrics(spec CellSpec, s *metrics.Sampler) error {
	se := s.Series()
	base := cellBase(spec)
	for ext, write := range map[string]func(io.Writer) error{
		".metrics.json": se.WriteJSON,
		".metrics.csv":  se.WriteCSV,
		".prom":         se.WritePrometheus,
	} {
		f, err := os.Create(filepath.Join(r.MetricsDir, base+ext))
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
