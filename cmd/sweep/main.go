// Command sweep regenerates the paper's tables and figures on the
// simulated machine and prints them as text tables with ASCII bars.
//
// Cells run concurrently on a bounded host worker pool (-jobs) and are
// memoized across figures, so `sweep -all` simulates each unique
// (benchmark, config) cell exactly once — Figure 1 is a subset of
// Figure 4, and Table 2 reuses Figure 4's UPMlib cells. Cells that do
// simulate share their cache simulation: the placement, engine and
// steady-state variants of one benchmark replay a single recorded L2-miss
// stream. Cells whose recording declined run from scratch. Output order
// is deterministic regardless of completion order. Ctrl-C cancels the
// sweep between cells.
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
	"errors"
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
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp), errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
}

// errUsage reports an invocation that selected nothing to run.
var errUsage = errors.New("nothing selected: pass -all, -fig or -table")

// sweeper holds one invocation's output streams and rendering state, so
// run is re-entrant and testable (main used package-level variables).
type sweeper struct {
	out     io.Writer
	errw    io.Writer
	csv     bool
	done    int  // finished cells on the current progress line
	collect bool // -metrics set: keep figure 1/4 cells for locality.md
	cells   []upmgo.ExperimentCell
	// Progress-line pacing state: when the current batch started and how
	// much per-cell Host time has finished, for the elapsed/ETA readout.
	batchStart time.Time
	hostSum    time.Duration
	// reports accumulates every finished cell's host-time breakdown for
	// the -report file (nil unless -report).
	reports []*upmgo.CellReport
	// steady accumulates each unique cell's steady-state accounting for
	// the -steady footer (nil unless -steady). Cells recur across figures
	// — Figure 1 is a subset of Figure 4 — so they are keyed by their
	// memoization fingerprint to count each exactly once.
	steady map[string]upmgo.SweepEvent
	// declined maps each benchmark whose miss-stream recording declined
	// to the reason, for the closing summary.
	declined map[string]string
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
	class := fs.String("class", "W", "problem class: S, W or A")
	benches := fs.String("benches", "", "comma-separated benchmark subset (default: all)")
	seed := fs.Uint64("seed", 42, "workload seed")
	iters := fs.Int("iters", 0, "override iteration count (0 = class default)")
	jobs := fs.Int("jobs", 0, "concurrent cell simulations (0 = GOMAXPROCS)")
	quiet := fs.Bool("quiet", false, "suppress the live progress line on stderr")
	csvOut := fs.Bool("csv", false, "emit figure 1/4 data as CSV instead of bars")
	traceDir := fs.String("trace", "", "write per-cell Chrome traces and text summaries into this directory (disables memoization)")
	steady := fs.Bool("steady", false, "detect each cell's steady state and extrapolate the remaining iterations instead of replaying them (bit-identical results; -all -class W on 2 vCPUs: 5.2-6.2 s with it, 5.9-7.3 s without)")
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
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}

	o := upmgo.SweepOptions{Seed: *seed, Iterations: *iters, Threads: *threads,
		Steady: *steady, Extrapolate: *steady, Topo: *topo}
	switch strings.ToUpper(*class) {
	case "S":
		o.Class = upmgo.ClassS
	case "W":
		o.Class = upmgo.ClassW
	case "A":
		o.Class = upmgo.ClassA
	default:
		return fmt.Errorf("unknown class %q", *class)
	}
	if *benches != "" {
		o.Benches = strings.Split(strings.ToUpper(*benches), ",")
	}

	if !*all && !*topoScale && *table == 0 && *fig == 0 {
		fs.Usage()
		return errUsage
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

	handlers := []func(upmgo.SweepEvent){s.recordDeclined}
	if reg != nil {
		handlers = append(handlers, func(ev upmgo.SweepEvent) { upmgo.PublishSweepEvent(reg, cache, ev) })
	}
	if *steady {
		s.steady = map[string]upmgo.SweepEvent{}
		handlers = append(handlers, s.recordSteady)
	}
	if reportf != nil {
		handlers = append(handlers, func(ev upmgo.SweepEvent) {
			if ev.Done && ev.Report != nil {
				s.reports = append(s.reports, ev.Report)
			}
		})
	}
	if logger != nil {
		handlers = append(handlers, func(ev upmgo.SweepEvent) { logCell(logger, ev) })
	}
	if !*quiet {
		handlers = append(handlers, s.progressLine)
	}
	if len(handlers) == 1 {
		r.OnEvent = handlers[0]
	} else if len(handlers) > 1 {
		r.OnEvent = func(ev upmgo.SweepEvent) {
			for _, h := range handlers {
				h(ev)
			}
		}
	}

	t0 := time.Now()
	switch {
	case *all:
		err = s.runTable1()
		for _, f := range []int{1, 4} {
			if err == nil {
				err = s.runFigure(ctx, r, f, o)
			}
		}
		if err == nil {
			err = s.runTable2(ctx, r, o)
		}
		for _, f := range []int{5, 6} {
			if err == nil {
				err = s.runFigure(ctx, r, f, o)
			}
		}
		if err == nil && *topoScale {
			err = s.runTopoScale(ctx, r, o)
		}
	case *topoScale:
		err = s.runTopoScale(ctx, r, o)
	case *table == 1:
		err = s.runTable1()
	case *table == 2:
		err = s.runTable2(ctx, r, o)
	default:
		err = s.runFigure(ctx, r, *fig, o)
	}
	if err != nil {
		return err
	}
	njobs := *jobs
	if njobs <= 0 {
		njobs = runtime.GOMAXPROCS(0)
	}
	cs := cache.Stats()
	if *storeDir != "" {
		fmt.Fprintf(stderr, "sweep: %d cells simulated (%d replayed from %d streams), %d recalled from cache, %d from store (%d newly stored), done in %s (host time, -jobs %d)\n",
			cs.Misses, cs.Replayed, cs.Streams, cs.Hits, cs.DiskHits, cs.StorePuts, time.Since(t0).Round(time.Millisecond), njobs)
		if cs.StoreErrors > 0 {
			fmt.Fprintf(stderr, "sweep: warning: %d store errors (last: %v); affected cells re-simulated or left unpersisted\n", cs.StoreErrors, cs.StoreErr)
		}
	} else {
		fmt.Fprintf(stderr, "sweep: %d cells simulated (%d replayed from %d streams), %d recalled from cache, done in %s (host time, -jobs %d)\n",
			cs.Misses, cs.Replayed, cs.Streams, cs.Hits, time.Since(t0).Round(time.Millisecond), njobs)
	}
	for _, b := range slices.Sorted(maps.Keys(s.declined)) {
		fmt.Fprintf(stderr, "sweep: %s miss-stream replay declined (%s); its cells ran from scratch\n", b, s.declined[b])
	}
	if line := s.steadySummary(); line != "" {
		fmt.Fprintln(stderr, line)
	}
	if logger != nil {
		logger.Info("sweep", "simulated", cs.Misses, "recalled", cs.Hits,
			"from_store", cs.DiskHits, "elapsed", time.Since(t0), "jobs", njobs)
	}
	if reportf != nil {
		if err := s.writeReport(reportf, time.Since(t0)); err != nil {
			return fmt.Errorf("-report: %w", err)
		}
		fmt.Fprintf(stderr, "sweep: report written to %s (%d cell runs)\n", *reportPath, len(s.reports))
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

// logCell emits one structured line per finished cell: identity, host
// and virtual cost, provenance, fast-path kind and (when the steady
// detector gave up) the typed why-not reason.
func logCell(logger *slog.Logger, ev upmgo.SweepEvent) {
	if !ev.Done {
		return
	}
	args := []any{"bench", ev.Spec.Bench, "label", ev.Spec.Config.Label(),
		"host", ev.Host, "virtual_s", ev.VirtualS}
	if rep := ev.Report; rep != nil {
		args = append(args, "source", rep.Source, "kind", string(rep.Kind))
		if w := rep.FastPath.WhyNot; w != nil {
			args = append(args, "why_not", string(w.Reason))
		}
	}
	if ev.Err != nil {
		logger.Error("cell", append(args, "err", ev.Err)...)
		return
	}
	logger.Info("cell", args...)
}

// writeReport aggregates the collected per-cell reports into one
// SweepReport and writes it to f as indented JSON.
func (s *sweeper) writeReport(f *os.File, wall time.Duration) error {
	sr := upmgo.BuildSweepReport(s.reports, 5)
	sr.WallSeconds = wall.Seconds()
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

// recordDeclined notes the benchmarks whose miss-stream recording
// declined, with the reason.
func (s *sweeper) recordDeclined(ev upmgo.SweepEvent) {
	if !ev.Done || ev.Report == nil || ev.Report.ReplayDeclined == "" {
		return
	}
	if s.declined == nil {
		s.declined = map[string]string{}
	}
	s.declined[ev.Spec.Bench] = ev.Report.ReplayDeclined
}

// steadySummary renders the -steady footer: how many unique cells
// extrapolated, split by proven period, and the median iteration at which
// detection fired. Empty when -steady was off or nothing finished.
func (s *sweeper) steadySummary() string {
	if len(s.steady) == 0 {
		return ""
	}
	var p1, pk int
	var ats []int
	for _, ev := range s.steady {
		if ev.SteadyAt > 0 {
			ats = append(ats, ev.SteadyAt)
		}
		if ev.ExtrapolatedIters > 0 {
			if ev.SteadyPeriod > 1 {
				pk++
			} else {
				p1++
			}
		}
	}
	line := fmt.Sprintf("sweep: %d of %d cells extrapolated (period-1: %d, period-k: %d)",
		p1+pk, len(s.steady), p1, pk)
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
	s.hostSum += ev.Host
	src := "sim"
	if ev.CacheHit {
		src = "hit"
	}
	elapsed := time.Since(s.batchStart)
	line := fmt.Sprintf("[%d/%d] %s %-12s %8.4fs %s %s | %s eta %s",
		s.done, ev.Total, ev.Spec.Bench, ev.Spec.Config.Label(),
		ev.VirtualS, src, ev.Host.Round(time.Millisecond),
		elapsed.Round(time.Millisecond), s.eta(elapsed, ev.Total))
	// Pad AND truncate to one fixed width: a line longer than the pad
	// width would leave residue from itself on the next, shorter repaint
	// (the flicker a long label plus a slow host time used to cause).
	if len(line) > progressWidth {
		line = line[:progressWidth]
	}
	fmt.Fprintf(s.errw, "\r%-*s", progressWidth, line)
	if s.done == ev.Total {
		// Batch complete: clear the line so the next figure starts clean.
		s.done = 0
		s.hostSum = 0
		s.batchStart = time.Time{}
		fmt.Fprintf(s.errw, "\r%*s\r", progressWidth, "")
	}
}

// eta projects the batch's remaining wall time: mean Host per finished
// cell times the cells left, divided by the observed concurrency
// (total Host time delivered per unit of wall time, floored at 1 so a
// cache-hot batch never divides by ~0).
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

func (s *sweeper) runFigure(ctx context.Context, r upmgo.SweepRunner, fig int, o upmgo.SweepOptions) error {
	kind, ok := figureKinds[fig]
	if !ok {
		return fmt.Errorf("no figure %d in the paper's evaluation", fig)
	}
	res, err := r.Sweep(ctx, upmgo.SweepRequest{Kind: kind, Options: o})
	if err != nil {
		return fmt.Errorf("figure %d: %w", fig, err)
	}
	switch fig {
	case 1, 4:
		cells := res.Cells
		if s.collect {
			s.cells = append(s.cells, cells...)
		}
		if s.csv {
			upmgo.WriteCellsCSV(s.out, cells)
			return nil
		}
		title := fmt.Sprintf("Figure %d. NAS benchmarks, Class %s, execution time under the four page", fig, o.Class)
		sub := "placement schemes"
		if fig == 1 {
			sub += " with and without the IRIX-style kernel migration engine."
		} else {
			sub += ", with kernel migration, and with UPMlib."
		}
		s.writeCells(title+"\n"+sub, cells)
		s.writeSummary(cells)
	case 5, 6:
		title := "Figure 5. Record-replay data redistribution on BT and SP (ft placement)."
		if fig == 6 {
			title = "Figure 6. Record-replay on the synthetically scaled BT (each phase x4)."
		}
		s.writeFigure5(title, res.Figure5)
	}
	fmt.Fprintln(s.out)
	return nil
}

// runTopoScale renders the hierarchical scaling sweep: the Figure 4
// placement×engine grid on each TopoScaleShapes machine (or just -topo's
// shape), labels suffixed with "@shape".
func (s *sweeper) runTopoScale(ctx context.Context, r upmgo.SweepRunner, o upmgo.SweepOptions) error {
	res, err := r.Sweep(ctx, upmgo.SweepRequest{Kind: upmgo.KindTopoScale, Options: o})
	if err != nil {
		return fmt.Errorf("toposcale: %w", err)
	}
	cells := res.Cells
	if s.collect {
		s.cells = append(s.cells, cells...)
	}
	if s.csv {
		upmgo.WriteCellsCSV(s.out, cells)
		return nil
	}
	shapes := strings.Join(upmgo.TopoScaleShapes, ", ")
	if o.Topo != "" {
		shapes = o.Topo
	}
	title := fmt.Sprintf("Topology scaling. NAS benchmarks, Class %s, the Figure 4 grid on", o.Class)
	sub := fmt.Sprintf("hierarchical machines (%s).", shapes)
	s.writeCells(title+"\n"+sub, cells)
	s.writeSummary(cells)
	fmt.Fprintln(s.out)
	return nil
}

func (s *sweeper) runTable2(ctx context.Context, r upmgo.SweepRunner, o upmgo.SweepOptions) error {
	res, err := r.Sweep(ctx, upmgo.SweepRequest{Kind: upmgo.KindTable2, Options: o})
	if err != nil {
		return fmt.Errorf("table 2: %w", err)
	}
	fmt.Fprintln(s.out, "Table 2. With UPMlib: slowdown vs first-touch over the last 75% of the")
	fmt.Fprintln(s.out, "iterations (left), and the fraction of page migrations performed by the")
	fmt.Fprintln(s.out, "first invocation (right).")
	fmt.Fprintf(s.out, "%-6s | %8s %8s %8s | %8s %8s %8s\n", "Bench", "rr", "rand", "wc", "rr", "rand", "wc")
	for _, r := range res.Table2 {
		fmt.Fprintf(s.out, "%-6s | %7.1f%% %7.1f%% %7.1f%% | %7.0f%% %7.0f%% %7.0f%%\n", r.Bench,
			100*r.SlowdownTail["rr"], 100*r.SlowdownTail["rand"], 100*r.SlowdownTail["wc"],
			100*r.FirstIterFrac["rr"], 100*r.FirstIterFrac["rand"], 100*r.FirstIterFrac["wc"])
	}
	fmt.Fprintln(s.out)
	return nil
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
