package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

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
	CacheHit bool          // served from the cache, no new simulation
	VirtualS float64       // simulated seconds of the cell's main loop
	Host     time.Duration // host wall-clock spent on (or waiting for) the cell
	Err      error
	// Steady-state accounting of the finished cell, copied from its
	// Result (zero when the cell simulated every iteration): the
	// iteration the detector fired at, the proven orbit length (0 or 1 =
	// period one), and the iterations covered by detector extrapolation.
	// cmd/sweep aggregates these into its -steady summary line.
	SteadyAt          int
	SteadyPeriod      int
	ExtrapolatedIters int
	// Report is the cell's full host-side telemetry record (provenance,
	// fast-path flags and WhyNot, host time by stage). Set on finished
	// events; never nil there. Aggregate with BuildSweepReport.
	Report *CellReport
}

// Runner executes batches of cells on a bounded host worker pool. The
// zero value runs with GOMAXPROCS workers and no memoization; it is a
// plain options struct and may be copied freely.
//
// Output ordering is deterministic: results come back in spec
// (presentation) order regardless of completion order, so rendered
// figures are byte-stable across Jobs values. The Jobs level never
// influences a cell's numbers — each cell simulates on its own Machine,
// and the simulator is bit-reproducible at every team width.
type Runner struct {
	// Jobs bounds the number of concurrently simulated cells.
	// 0 or negative means runtime.GOMAXPROCS(0).
	Jobs int
	// Cache, when non-nil, memoizes completed cells across batches.
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
// have not started. Cancelling ctx stops the batch promptly — cells
// already simulating run to completion, no new cell starts — and Cells
// returns ctx.Err().
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
	if jobs > len(specs) {
		jobs = len(specs)
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

	// cctx stops the feeder on the first failure; the caller's ctx is
	// consulted afterwards so an internal abort is not mistaken for an
	// external cancellation.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	next := make(chan int)
	go func() {
		defer close(next)
		for _, i := range r.dispatchOrder(specs) {
			select {
			case next <- i:
			case <-cctx.Done():
				return
			}
		}
	}()

	cells := make([]Cell, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				spec := specs[i]
				emit(Event{Spec: spec, Index: i, Total: len(specs)})
				start := time.Now()
				c, rep, err := r.runCell(cctx, spec)
				host := time.Since(start)
				rep.setHost(host)
				cells[i], errs[i] = c, err
				emit(Event{Spec: spec, Index: i, Total: len(specs), Done: true,
					CacheHit: err == nil && rep.Source != SourceSimulated,
					VirtualS: c.Seconds(), Host: host, Err: err,
					SteadyAt: c.Result.SteadyAt, SteadyPeriod: c.Result.SteadyPeriod,
					ExtrapolatedIters: c.Result.ExtrapolatedIters,
					Report:            rep})
				if err != nil {
					cancel()
				}
			}
		}()
	}
	wg.Wait()

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

// dispatchOrder returns the order in which the workers take specs. With
// a Cache, each stream's first cell leads, so every recording starts as
// early as it can and no worker waits on one while cells of another
// stream are queued; the rest follow in presentation order.
func (r Runner) dispatchOrder(specs []CellSpec) []int {
	var order, rest []int
	seen := map[string]bool{}
	for i, spec := range specs {
		skey, ok := spec.Config.StreamFingerprint()
		if key := spec.Bench + "\x00" + skey; r.Cache != nil && ok && !seen[key] {
			seen[key] = true
			order = append(order, i)
		} else {
			rest = append(rest, i)
		}
	}
	return append(order, rest...)
}

// runCell executes or recalls one cell. A memoizable cell replays the
// benchmark's L2-miss stream (recorded once per stream fingerprint, held
// in the Cache); steady cells replay it too, their detector reading the
// cache counters the log keeps. Cells that cannot be memoized (Tweak,
// tracing, metrics), cells run without a Cache and cells whose recording
// declined simulate from scratch with nas.Run, the reference the replay
// is proven bit-identical to.
//
// The returned CellReport (never nil) carries the cell's provenance and
// host-stage attribution; the caller fills HostSeconds via setHost once
// it knows the total. The HostStages sink rides on the Config but is
// observation-only: it is outside the fingerprint, charges no virtual
// time, and leaves the cell bit-identical to an uninstrumented run.
func (r Runner) runCell(ctx context.Context, spec CellSpec) (Cell, *CellReport, error) {
	hs := &nas.HostStages{}
	meta := &cellMeta{source: SourceSimulated}
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
	if r.Cache != nil {
		key, ok := spec.Key()
		skey, sok := spec.Config.StreamFingerprint()
		if ok && sok {
			c, _, err := r.Cache.cell(ctx, key, func() (Cell, error) {
				return r.replayCell(ctx, spec, skey, meta)
			}, meta)
			rep := newCellReport(spec, c, meta, hs)
			rep.Address = store.Address(key)
			return c, rep, err
		}
		r.Cache.noteScratch()
	}
	c, err := run(spec.Bench, spec.Config)
	if err == nil && r.TraceDir != "" {
		err = r.writeTrace(spec, spec.Config.Tracer.(*trace.Recorder))
	}
	if err == nil && r.MetricsDir != "" {
		err = r.writeMetrics(spec, spec.Config.Metrics)
	}
	return c, newCellReport(spec, c, meta, hs), err
}

// replayCell answers spec by replaying the benchmark's miss stream for
// skey, recording the stream first if this is the fingerprint's first
// cell. Every cell replays, the stream's canonical cell included; each
// charges its wait for the recording to the record stage. When the
// recording declined, the cell runs from scratch and meta carries the
// reason.
func (r Runner) replayCell(ctx context.Context, spec CellSpec, skey string, meta *cellMeta) (Cell, error) {
	b, ok := Builder(spec.Bench)
	if !ok {
		return Cell{}, fmt.Errorf("exp: %w: %q", ErrUnknownBenchmark, spec.Bench)
	}
	t0 := time.Now()
	led := false
	s, err := r.Cache.stream(ctx, spec.Bench+"\x00"+skey, func() (*nas.Stream, error) {
		led = true
		return nas.RecordStream(b, spec.Config)
	})
	if err != nil {
		return Cell{}, fmt.Errorf("exp: %s %s: %w", spec.Bench, spec.Config.Label(), err)
	}
	spec.Config.HostStages.Record += time.Since(t0)
	meta.declined = s.Declined
	if led {
		meta.recording = &s.Compression
	}
	if s.Declined != "" {
		return run(spec.Bench, spec.Config)
	}
	res, err := s.Replay(spec.Config)
	if err != nil {
		return Cell{}, fmt.Errorf("exp: %s %s: %w", spec.Bench, spec.Config.Label(), err)
	}
	meta.replayed = true
	r.Cache.noteReplay()
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
