// Command sweep regenerates the paper's tables and figures on the
// simulated machine and prints them as text tables with ASCII bars.
//
// Every selected figure and table runs as one batch of cells on a
// bounded host worker pool (-jobs), and the results print in the paper's
// order. The figures overlap — Figure 1 is a subset of Figure 4, and
// Table 2 and Figure 5 re-read Figure 4's cells — so `sweep -all`
// simulates each unique (benchmark, config) cell exactly once, and the
// cells that do simulate share their cache simulation: every placement,
// engine and steady-state variant of one benchmark replays a single
// L2-miss stream, recorded once for the whole batch. Cells whose
// recording declined run from scratch. Output order is deterministic
// regardless of completion order. Ctrl-C cancels the sweep: no new cell
// starts, recordings and their verdicts stop before their next step,
// parked replays stop at once, and cells simulating from scratch run to
// completion (exp.Runner.Cells).
//
// Examples:
//
//	sweep -table 1                  # memory hierarchy latencies
//	sweep -fig 1 -class W           # placement x kernel migration
//	sweep -fig 4 -benches BT,CG     # + UPMlib, selected benchmarks
//	sweep -table 2                  # steady-state slowdown statistics
//	sweep -fig 5                    # record-replay on BT and SP
//	sweep -fig 6                    # record-replay on the scaled BT
//	sweep -fig 5 -trace traces/     # + per-cell Chrome traces
//	sweep -all -steady              # fast-forward steady-state tails
//	sweep -all -jobs 8              # everything (EXPERIMENTS.md input)
//	sweep -all -cpuprofile cpu.pb   # + host CPU profile of the sweep
//	sweep -all -store results/      # persist cells; a second run recalls
//	                                # everything from disk (cmd/sweepd
//	                                # serves the same store over HTTP)
//	sweep -fig 4 -topo hier64       # Figure 4 on a 64-CPU hierarchy
//	sweep -toposcale -steady        # the Figure 4 grid at 64/128/256 CPUs
//	sweep -all -report report.json  # + host-time breakdown (traceview report)
//	sweep -all -log json -quiet     # structured per-cell completion log
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	"upmgo"
	"upmgo/internal/cli"
)

func main() { os.Exit(cli.Exit("sweep", run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr)) }

// errUsage reports an invocation that selected nothing to run. Like -h,
// it asks for the usage, which run has printed, so it wraps
// flag.ErrHelp.
var errUsage = fmt.Errorf("nothing selected: pass -all, -fig, -table or -toposcale (%w)", flag.ErrHelp)

// sweeper holds one invocation's output streams and rendering state, so
// run is re-entrant and testable (main used package-level variables).
type sweeper struct {
	out     io.Writer
	errw    io.Writer
	csv     bool
	done    int  // finished cells on the progress line
	collect bool // -metrics set: keep figure 1/4 cells for locality.md
	cells   []upmgo.ExperimentCell
	// Progress-line pacing state: when the batch started and how much
	// per-cell host time has finished, for the elapsed/ETA readout.
	batchStart time.Time
	hostSum    time.Duration
	// reports accumulates every finished cell's report, for the closing
	// summary and the -report file (one BuildSweepReport over them).
	reports []*upmgo.CellReport
	// steady accumulates each unique cell's steady-state accounting for
	// the -steady footer (nil unless -steady). Cells recur across figures
	// — Figure 1 is a subset of Figure 4 — so they are keyed by their
	// memoization fingerprint to count each exactly once.
	steady map[string]upmgo.SweepEvent
}

// metricsServed is a test seam: when a -metrics-addr server is up, run
// calls it with the bound address after the sweep completes and before
// the server shuts down, so tests can scrape the live endpoint.
var metricsServed = func(addr string) {}

// run is main without the process exit: it parses args, runs the
// selected sweeps, and writes tables to stdout and progress to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.Int("fig", 0, "figure to regenerate: 1, 4, 5 or 6")
	table := fs.Int("table", 0, "table to regenerate: 1 or 2")
	all := fs.Bool("all", false, "regenerate every table and figure")
	o := upmgo.SweepOptions{Class: upmgo.ClassW}
	fs.TextVar(&o.Class, "class", o.Class, "problem class: S, W or A")
	benches := fs.String("benches", "", "comma-separated benchmark subset (default: all)")
	seed := fs.Uint64("seed", 42, "workload seed")
	iters := fs.Int("iters", 0, "override iteration count (0 = class default)")
	jobs := fs.Int("jobs", 0, "concurrent cell simulations (0 = GOMAXPROCS)")
	quiet := fs.Bool("quiet", false, "suppress the live progress line on stderr")
	csvOut := fs.Bool("csv", false, "emit figure 1/4 data as CSV instead of bars")
	traceDir := fs.String("trace", "", "write per-cell Chrome traces and text summaries into this directory (disables memoization)")
	steady := fs.Bool("steady", false, "detect each cell's steady state and extrapolate the remaining iterations instead of replaying them (bit-identical results)")
	threads := fs.Int("threads", 0, "simulated team size per cell (0 = all CPUs; every width is exactly reproducible)")
	topo := fs.String("topo", "", "machine shape for every figure/table-2 cell: a [cube:]LxLx...xC spec (last component = CPUs per node) or preset (origin, hier64, hier128, hier256); empty = the class default machine. Table 1 always shows the default ladder; use cmd/latency -topo for others")
	topoScale := fs.Bool("toposcale", false, "run the hierarchical scaling sweep: the Figure 4 grid on the 64/128/256-CPU machine shapes (-topo narrows it to one shape)")
	cpuProfile := fs.String("cpuprofile", "", "write a host CPU profile of the sweep to this file")
	memProfile := fs.String("memprofile", "", "write a host heap profile (post-sweep) to this file")
	metricsDir := fs.String("metrics", "", "write per-cell NUMA metrics (JSON/CSV/Prometheus series, page heatmaps) and a locality.md digest into this directory (disables memoization)")
	metricsAddr := fs.String("metrics-addr", "", "serve live /metrics, /debug/vars and /debug/pprof on this address while sweeping (e.g. localhost:9090; disables memoization)")
	storeDir := fs.String("store", "", "content-addressed result store directory: recall cells earlier runs (or cmd/sweepd) persisted, persist everything newly simulated")
	reportPath := fs.String("report", "", "write a JSON sweep report (host time by stage, cells by fast-path kind, top slowest cells, why-not histogram) to this file; render it with `traceview report`")
	logFormat := fs.String("log", "off", "structured per-cell completion log to stderr: text or json (slog; off = none, the default — pairs best with -quiet)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	o.Seed, o.Iterations, o.Threads, o.Topo = *seed, *iters, *threads, *topo
	o.Steady, o.Extrapolate = *steady, *steady
	if *benches != "" {
		o.Benches = strings.Split(strings.ToUpper(*benches), ",")
	}

	if !*all && !*topoScale && *table == 0 && *fig == 0 {
		fs.Usage()
		return errUsage
	}
	if _, ok := figureKinds[*fig]; !ok && *fig != 0 {
		return fmt.Errorf("-fig: no figure %d in the paper's evaluation", *fig)
	}
	if *table < 0 || *table > 2 {
		return fmt.Errorf("-table: no table %d in the paper's evaluation", *table)
	}
	if *topo != "" {
		// Fail a bad shape here, named after its flag, instead of once per
		// cell inside the pool.
		if _, err := upmgo.ParseTopoShape(*topo); err != nil {
			return fmt.Errorf("-topo: %w", err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Validate every output destination before the first cell simulates:
	// an unusable directory or profile path fails now, named after its
	// flag, instead of minutes into the sweep.
	for _, d := range []struct{ flag, dir string }{{"-trace", *traceDir}, {"-metrics", *metricsDir}} {
		if d.dir == "" {
			continue
		}
		if err := probeDir(d.dir); err != nil {
			return fmt.Errorf("%s: %w", d.flag, err)
		}
	}
	var st *upmgo.ResultStore
	if *storeDir != "" {
		var err error
		if st, err = upmgo.OpenResultStore(*storeDir); err != nil {
			return fmt.Errorf("-store: %w", err)
		}
	}
	logger, err := newLogger(*logFormat, stderr)
	if err != nil {
		return err
	}
	var reportf *os.File
	if *reportPath != "" {
		f, err := os.Create(*reportPath)
		if err != nil {
			return fmt.Errorf("-report: %w", err)
		}
		defer f.Close()
		reportf = f
	}
	var memf *os.File
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		defer f.Close()
		memf = f
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	s := &sweeper{out: stdout, errw: stderr, csv: *csvOut, collect: *metricsDir != ""}
	cache := upmgo.NewSweepCache()
	if st != nil {
		cache.SetStore(st)
	}
	r := upmgo.SweepRunner{Jobs: *jobs, Cache: cache, TraceDir: *traceDir, MetricsDir: *metricsDir}

	var reg *upmgo.MetricsRegistry
	var served string
	if *metricsAddr != "" {
		reg = upmgo.NewMetricsRegistry()
		upmgo.DescribeSweepGauges(reg)
		upmgo.PublishBuildInfo(reg)
		r.MetricsRegistry = reg
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("-metrics-addr: %w", err)
		}
		served = ln.Addr().String()
		srv := &http.Server{Handler: upmgo.MetricsHandler(reg)}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(stderr, "sweep: serving /metrics, /debug/vars and /debug/pprof/ on http://%s/\n", served)
	}

	handlers := []func(upmgo.SweepEvent){s.record}
	if reg != nil {
		handlers = append(handlers, func(ev upmgo.SweepEvent) { upmgo.PublishSweepEvent(reg, cache, ev) })
	}
	if *steady {
		s.steady = map[string]upmgo.SweepEvent{}
		handlers = append(handlers, s.recordSteady)
	}
	if logger != nil {
		handlers = append(handlers, func(ev upmgo.SweepEvent) { logCell(logger, ev) })
	}
	if !*quiet {
		handlers = append(handlers, s.progressLine)
	}
	r.OnEvent = func(ev upmgo.SweepEvent) {
		for _, h := range handlers {
			h(ev)
		}
	}

	// The selected sweeps, in the paper's order (Kinds' order), run as one
	// batch: cells shared between them simulate once and every benchmark's
	// miss stream is recorded once.
	var reqs []upmgo.SweepRequest
	for _, k := range upmgo.SweepKinds {
		if *all && k != upmgo.KindTopoScale || k == figureKinds[*fig] ||
			k == upmgo.KindTable2 && *table == 2 || k == upmgo.KindTopoScale && *topoScale {
			reqs = append(reqs, upmgo.SweepRequest{Kind: k, Options: o})
		}
	}
	t0 := time.Now()
	if *all || *table == 1 {
		if err := s.runTable1(); err != nil {
			return err
		}
	}
	results, err := r.Sweeps(ctx, reqs)
	if err != nil {
		return err
	}
	for _, res := range results {
		s.render(res, o)
	}
	njobs := *jobs
	if njobs <= 0 {
		njobs = runtime.GOMAXPROCS(0)
	}
	sr := upmgo.BuildSweepReport(s.reports, 5)
	simulated, memory := sr.BySource[upmgo.CellSourceSimulated], sr.BySource[upmgo.CellSourceMemory]
	if *storeDir != "" {
		cs := cache.Stats()
		fmt.Fprintf(stderr, "sweep: %d cells simulated (%d replayed from %d streams), %d recalled from cache, %d from store (%d newly stored), done in %s (host time, -jobs %d)\n",
			simulated, sr.Replayed, len(sr.Recordings), memory, sr.BySource[upmgo.CellSourceStore], cs.StorePuts, time.Since(t0).Round(time.Millisecond), njobs)
		if cs.StoreErrors > 0 {
			fmt.Fprintf(stderr, "sweep: warning: %d store errors (last: %v); affected cells re-simulated or left unpersisted\n", cs.StoreErrors, cs.StoreErr)
		}
	} else {
		fmt.Fprintf(stderr, "sweep: %d cells simulated (%d replayed from %d streams), %d recalled from cache, done in %s (host time, -jobs %d)\n",
			simulated, sr.Replayed, len(sr.Recordings), memory, time.Since(t0).Round(time.Millisecond), njobs)
	}
	var steps, stepsSimulated int
	for _, rec := range sr.Recordings {
		steps += rec.Compression.Steps
		stepsSimulated += rec.Compression.Simulated()
	}
	if steps > 0 {
		fmt.Fprintf(stderr, "sweep: the recordings simulated %d of %d timed steps; the rest repeated\n",
			stepsSimulated, steps)
	}
	for _, b := range slices.Sorted(maps.Keys(sr.Declined)) {
		fmt.Fprintf(stderr, "sweep: %s miss-stream replay declined (%s); its cells ran from scratch\n", b, sr.Declined[b])
	}
	if line := s.steadySummary(); line != "" {
		fmt.Fprintln(stderr, line)
	}
	if logger != nil {
		logger.Info("sweep", "simulated", simulated, "recalled", memory,
			"from_store", sr.BySource[upmgo.CellSourceStore], "elapsed", time.Since(t0), "jobs", njobs)
	}
	if reportf != nil {
		sr.WallSeconds = time.Since(t0).Seconds()
		host := upmgo.SweepHostContext(njobs, *threads)
		sr.Host = &host
		if err := writeReport(reportf, sr); err != nil {
			return fmt.Errorf("-report: %w", err)
		}
		fmt.Fprintf(stderr, "sweep: report written to %s (%d cell runs)\n", *reportPath, sr.Cells)
	}
	if *metricsDir != "" && len(s.cells) > 0 {
		if err := s.writeLocality(*metricsDir); err != nil {
			return fmt.Errorf("-metrics: %w", err)
		}
	}
	if reg != nil {
		metricsServed(served)
	}
	if memf != nil {
		runtime.GC() // settle allocations so the heap profile reflects live state
		if err := pprof.WriteHeapProfile(memf); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
	}
	return nil
}

// newLogger builds the optional structured sweep log: slog to w in the
// chosen format, nil when format is "off" (the default — unlike sweepd,
// the CLI's human-readable progress line is the primary surface).
func newLogger(format string, w io.Writer) (*slog.Logger, error) {
	switch format {
	case "off":
		return nil, nil
	case "text":
		return slog.New(slog.NewTextHandler(w, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, nil)), nil
	default:
		return nil, fmt.Errorf("-log: unknown format %q (want off, text or json)", format)
	}
}

// logCell emits one structured line per finished cell: identity (the
// label, plus the store address of a memoizable cell, which unlike the
// label tells apart cells of different scale, iterations or threads),
// host and virtual cost, provenance, fast-path kind and (when the steady
// detector gave up) the typed why-not reason.
func logCell(logger *slog.Logger, ev upmgo.SweepEvent) {
	if !ev.Done {
		return
	}
	rep := ev.Report
	args := []any{"bench", ev.Spec.Bench, "label", ev.Spec.Config.Label(),
		"host", hostTime(rep), "virtual_s", rep.VirtualSeconds}
	if rep.Address != "" {
		args = append(args, "address", rep.Address)
	}
	args = append(args, "source", rep.Source, "kind", string(rep.Kind))
	if w := rep.FastPath.WhyNot; w != nil {
		args = append(args, "why_not", string(w.Reason))
	}
	if ev.Err != nil {
		logger.Error("cell", append(args, "err", ev.Err)...)
		return
	}
	logger.Info("cell", args...)
}

// hostTime is a finished cell's host wall-time as a Duration.
func hostTime(rep *upmgo.CellReport) time.Duration {
	return time.Duration(rep.HostSeconds * float64(time.Second))
}

// writeReport writes the sweep's report to f as indented JSON.
func writeReport(f *os.File, sr upmgo.SweepReport) error {
	blob, err := json.MarshalIndent(sr, "", "  ")
	if err != nil {
		return err
	}
	if _, err := f.Write(append(blob, '\n')); err != nil {
		return err
	}
	return f.Close()
}

// probeDir creates dir if needed and proves it writable with a
// create-and-remove round trip, so a doomed output flag fails before
// the sweep instead of after it.
func probeDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return err
	}
	name := f.Name()
	f.Close()
	return os.Remove(name)
}

// writeLocality renders the accumulated figure 1/4 cells' local:remote
// access ratios into <dir>/locality.md (the EXPERIMENTS.md digest).
func (s *sweeper) writeLocality(dir string) error {
	f, err := os.Create(filepath.Join(dir, "locality.md"))
	if err != nil {
		return err
	}
	if err := upmgo.WriteLocalityTable(f, s.cells); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recordSteady keeps one finished event per unique cell (keyed by the
// memoization fingerprint, falling back to bench+label for unmemoizable
// configs) so the -steady footer counts each cell exactly once no matter
// how many figures recalled it.
func (s *sweeper) recordSteady(ev upmgo.SweepEvent) {
	if !ev.Done || ev.Err != nil {
		return
	}
	k, ok := ev.Spec.Key()
	if !ok {
		k = ev.Spec.Bench + "\x00" + ev.Spec.Config.Label()
	}
	s.steady[k] = ev
}

// record keeps every finished cell's report for the closing summary
// and the -report file.
func (s *sweeper) record(ev upmgo.SweepEvent) {
	if ev.Done {
		s.reports = append(s.reports, ev.Report)
	}
}

// steadySummary renders the -steady footer: how many unique cells
// extrapolated and the median iteration at which detection fired. Empty
// when -steady was off or nothing finished.
func (s *sweeper) steadySummary() string {
	if len(s.steady) == 0 {
		return ""
	}
	var n int
	var ats []int
	for _, ev := range s.steady {
		if ev.SteadyAt > 0 {
			ats = append(ats, ev.SteadyAt)
		}
		if ev.ExtrapolatedIters > 0 {
			n++
		}
	}
	line := fmt.Sprintf("sweep: %d of %d cells extrapolated", n, len(s.steady))
	if len(ats) > 0 {
		sort.Ints(ats)
		line += fmt.Sprintf(", median SteadyAt=%d", ats[len(ats)/2])
	}
	return line
}

// progressLine renders finished cells as one live stderr line, with the
// batch's elapsed host time and an ETA derived from the completed
// cells' Host durations (their mean, scaled by the concurrency the
// batch has actually achieved so far). The runner serializes OnEvent
// calls, so the counters need no locking.
func (s *sweeper) progressLine(ev upmgo.SweepEvent) {
	if s.batchStart.IsZero() {
		s.batchStart = time.Now()
	}
	if !ev.Done {
		return
	}
	s.done++
	host := hostTime(ev.Report)
	s.hostSum += host
	src := "sim"
	if ev.Report.Source != upmgo.CellSourceSimulated {
		src = "hit"
	}
	elapsed := time.Since(s.batchStart)
	line := fmt.Sprintf("[%d/%d] %s %-12s %8.4fs %s %s | %s eta %s",
		s.done, ev.Total, ev.Spec.Bench, ev.Spec.Config.Label(),
		ev.Report.VirtualSeconds, src, host.Round(time.Millisecond),
		elapsed.Round(time.Millisecond), s.eta(elapsed, ev.Total))
	// Pad AND truncate to one fixed width: a line longer than the pad
	// width would leave residue from itself on the next, shorter repaint
	// (the flicker a long label plus a slow host time used to cause).
	if len(line) > progressWidth {
		line = line[:progressWidth]
	}
	fmt.Fprintf(s.errw, "\r%-*s", progressWidth, line)
	if s.done == ev.Total {
		// Batch complete: clear the line before the summary.
		fmt.Fprintf(s.errw, "\r%*s\r", progressWidth, "")
	}
}

// eta projects the batch's remaining wall time: mean host time per
// finished cell times the cells left, divided by the observed
// concurrency (total host time delivered per unit of wall time, floored
// at 1 so a cache-hot batch never divides by ~0).
func (s *sweeper) eta(elapsed time.Duration, total int) time.Duration {
	if s.done == 0 || elapsed <= 0 {
		return 0
	}
	mean := float64(s.hostSum) / float64(s.done)
	conc := float64(s.hostSum) / float64(elapsed)
	if conc < 1 {
		conc = 1
	}
	return time.Duration(float64(total-s.done) * mean / conc).Round(time.Millisecond)
}

// progressWidth is the fixed repaint width of the live progress line:
// every repaint pads or truncates to exactly this many columns, so
// successive lines fully overwrite each other.
const progressWidth = 78

func (s *sweeper) runTable1() error {
	if err := upmgo.WriteTable1(s.out); err != nil {
		return err
	}
	fmt.Fprintln(s.out)
	return nil
}

// figureKinds maps the -fig numbers to their sweep requests.
var figureKinds = map[int]upmgo.SweepKind{
	1: upmgo.KindFigure1, 4: upmgo.KindFigure4, 5: upmgo.KindFigure5, 6: upmgo.KindFigure6,
}

// render prints one sweep's result: Figures 1 and 4 and the toposcale
// sweep as bars (or -csv rows), Table 2 as a table, Figures 5 and 6 as
// bars with their migration-overhead segments.
func (s *sweeper) render(res upmgo.SweepResult, o upmgo.SweepOptions) {
	switch res.Kind {
	case upmgo.KindFigure1, upmgo.KindFigure4, upmgo.KindTopoScale:
		if s.collect {
			s.cells = append(s.cells, res.Cells...)
		}
		if s.csv {
			upmgo.WriteCellsCSV(s.out, res.Cells)
			return
		}
		s.writeCells(cellsTitle(res.Kind, o), res.Cells)
		s.writeSummary(res.Cells)
	case upmgo.KindTable2:
		s.writeTable2(res.Table2)
	case upmgo.KindFigure5:
		s.writeFigure5("Figure 5. Record-replay data redistribution on BT and SP (ft placement).", res.Figure5)
	case upmgo.KindFigure6:
		s.writeFigure5("Figure 6. Record-replay on the synthetically scaled BT (each phase x4).", res.Figure5)
	}
	fmt.Fprintln(s.out)
}

// cellsTitle is the two-line title of a bar-chart sweep: Figure 1 or 4,
// or the toposcale grid on TopoScaleShapes (or just -topo's shape),
// whose labels carry an "@shape" suffix.
func cellsTitle(kind upmgo.SweepKind, o upmgo.SweepOptions) string {
	switch kind {
	case upmgo.KindFigure1:
		return fmt.Sprintf("Figure 1. NAS benchmarks, Class %s, execution time under the four page\n", o.Class) +
			"placement schemes with and without the IRIX-style kernel migration engine."
	case upmgo.KindFigure4:
		return fmt.Sprintf("Figure 4. NAS benchmarks, Class %s, execution time under the four page\n", o.Class) +
			"placement schemes, with kernel migration, and with UPMlib."
	}
	shapes := strings.Join(upmgo.TopoScaleShapes, ", ")
	if o.Topo != "" {
		shapes = o.Topo
	}
	return fmt.Sprintf("Topology scaling. NAS benchmarks, Class %s, the Figure 4 grid on\n", o.Class) +
		fmt.Sprintf("hierarchical machines (%s).", shapes)
}

func (s *sweeper) writeTable2(rows []upmgo.Table2Row) {
	fmt.Fprintln(s.out, "Table 2. With UPMlib: slowdown vs first-touch over the last 75% of the")
	fmt.Fprintln(s.out, "iterations (left), and the fraction of page migrations performed by the")
	fmt.Fprintln(s.out, "first invocation (right).")
	fmt.Fprintf(s.out, "%-6s | %8s %8s %8s | %8s %8s %8s\n", "Bench", "rr", "rand", "wc", "rr", "rand", "wc")
	for _, r := range rows {
		fmt.Fprintf(s.out, "%-6s | %7.1f%% %7.1f%% %7.1f%% | %7.0f%% %7.0f%% %7.0f%%\n", r.Bench,
			100*r.SlowdownTail["rr"], 100*r.SlowdownTail["rand"], 100*r.SlowdownTail["wc"],
			100*r.FirstIterFrac["rr"], 100*r.FirstIterFrac["rand"], 100*r.FirstIterFrac["wc"])
	}
}

func (s *sweeper) writeCells(title string, cells []upmgo.ExperimentCell) {
	fmt.Fprintln(s.out, title)
	byBench := map[string][]upmgo.ExperimentCell{}
	var order []string
	for _, c := range cells {
		if _, seen := byBench[c.Bench]; !seen {
			order = append(order, c.Bench)
		}
		byBench[c.Bench] = append(byBench[c.Bench], c)
	}
	for _, b := range order {
		group := byBench[b]
		var max float64
		for _, c := range group {
			if sec := c.Seconds(); sec > max {
				max = sec
			}
		}
		fmt.Fprintf(s.out, "\n%s (virtual seconds, %d iterations)\n", b, len(group[0].Result.IterPS))
		for _, c := range group {
			bar := strings.Repeat("#", int(40*c.Seconds()/max+0.5))
			fmt.Fprintf(s.out, "  %-14s %9.4f  %s\n", c.Label, c.Seconds(), bar)
		}
	}
}

func (s *sweeper) writeSummary(cells []upmgo.ExperimentCell) {
	type key struct{ bench, label string }
	times := map[key]float64{}
	labels := map[string]bool{}
	benches := map[string]bool{}
	for _, c := range cells {
		times[key{c.Bench, c.Label}] = c.Seconds()
		labels[c.Label] = true
		benches[c.Bench] = true
	}
	var names []string
	for l := range labels {
		if !strings.HasPrefix(l, "ft-") {
			names = append(names, l)
		}
	}
	sort.Strings(names)
	fmt.Fprintln(s.out, "\nMean slowdown vs the ft bar with the same engine:")
	for _, label := range names {
		suffix := label[strings.Index(label, "-"):]
		var sum float64
		var n int
		for b := range benches {
			base, ok1 := times[key{b, "ft" + suffix}]
			v, ok2 := times[key{b, label}]
			if ok1 && ok2 && base > 0 {
				sum += v/base - 1
				n++
			}
		}
		if n > 0 {
			fmt.Fprintf(s.out, "  %-14s %+6.1f%%\n", label, 100*sum/float64(n))
		}
	}
}

func (s *sweeper) writeFigure5(title string, cells []upmgo.Figure5Cell) {
	fmt.Fprintln(s.out, title)
	var max float64
	for _, c := range cells {
		if c.Seconds > max {
			max = c.Seconds
		}
	}
	for _, c := range cells {
		bar := strings.Repeat("#", int(40*(c.Seconds-c.OverheadS)/max+0.5))
		over := strings.Repeat("/", int(40*c.OverheadS/max+0.5))
		fmt.Fprintf(s.out, "  %-3s %-12s %9.4fs (z phase %8.4fs, migration overhead %7.4fs, moves %5d) %s%s\n",
			c.Bench, c.Label, c.Seconds, c.PhaseS, c.OverheadS, c.Migrations, bar, over)
	}
}
