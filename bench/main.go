// Command bench is upmgo's end-to-end and per-layer benchmark. It runs
// the sweeps users run, as a closed batch per repetition, each
// repetition in a fresh worker process (the harness re-executing
// itself), checks every result, and prints each metric as
//
//	<workload> <metric> <value> <unit>
//
// followed, as the last line, by one JSON object with the verdict and
// the metrics. It exits non-zero, naming the cell, on any failed cell,
// paper-shape anchor violation or reference mismatch. See README.md.
//
// From the repository root:
//
//	bash bench/run.sh                  # all workloads, fixed repetitions, traced
//	bash bench/run.sh --workload wide-s --seed 7 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"upmgo/internal/store"
)

func main() {
	if spec := os.Getenv(workerEnv); spec != "" {
		os.Exit(workerMain(spec, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the harness: it returns 0 when every output checked out, 1 when
// one did not (or the run could not be made), 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "", "run only this workload (default: all of them, repetitions interleaved round-robin)")
	seed := fs.Uint64("seed", 42, "workload seed")
	seconds := fs.Int("seconds", 0, "time budget per workload for its untraced repetitions (0 = the workload's fixed repetition count)")
	traced := fs.Int("trace", 1, "1 = add one traced repetition per workload and the layer probes, and report per-layer metrics; 0 = end-to-end metrics only")
	outDir := fs.String("out", ".bench_build", "directory for the JSON report, the Chrome traces and scratch space")
	updateRef := fs.Bool("update-ref", false, "rewrite "+refPath+" from this run's w1-steady cells")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "bench: "+format+"\n", a...)
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	case *traced != 0 && *traced != 1:
		return usage("-trace must be 0 or 1, not %d", *traced)
	case *seconds < 0:
		return usage("-seconds must be >= 0, not %d", *seconds)
	}
	ws := workloads
	if *only != "" {
		ws = nil
		for _, w := range workloads {
			if w.Name == *only {
				ws = []workload{w}
			}
		}
		if ws == nil {
			return usage("unknown workload %q", *only)
		}
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintf(stderr, "bench: reference: %v\n", err)
		return 1
	}
	if *updateRef && !hasWorkload(ws, ref.Workload) {
		return usage("-update-ref needs the %s workload", ref.Workload)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	h := &harness{seed: *seed, jobs: runtime.NumCPU(), seconds: *seconds, traced: *traced == 1,
		updateRef: *updateRef, ref: ref, out: *outDir, stderr: stderr}
	if err := h.setUp(); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer removeAll(h.work)
	fmt.Fprintf(stdout, "# host %s\n", h.context)

	runs := h.measure(ctx, ws)
	var probes map[string]float64
	if h.traced {
		var perr error
		if probes, perr = h.probe(ctx); perr != nil {
			for _, wr := range runs {
				wr.problems = append(wr.problems, fmt.Sprintf("layer probes: %v", perr))
			}
		}
	}
	return h.finish(runs, probes, stdout, stderr)
}

// finish checks the runs' outputs, prints every metric and the final
// JSON line, writes the JSON report, and returns the exit code.
func (h *harness) finish(runs []*workloadRun, probes map[string]float64, stdout, stderr io.Writer) int {
	rep := report{Host: h.context, Result: result{Correct: true, Metrics: map[string]valueUnit{}}}
	res := &rep.Result
	selected := endToEnd
	if h.traced {
		selected = perLayer
	}
	for _, wr := range runs {
		refMismatch := -1
		if wr.w.Name == h.ref.Workload && h.ref.Seed == h.seed && !h.updateRef {
			refMismatch = wr.checkReference(h.ref)
		}
		wr.check()
		ms := wr.metrics(probes, refMismatch)
		attempted, failed := wr.counts()
		res.Attempted += attempted
		res.Failed += failed
		res.Correct = res.Correct && len(wr.problems) == 0
		rep.Workloads = append(rep.Workloads, workloadReport{
			Name: wr.w.Name, Reps: len(wr.reps), Seconds: wr.elapsed,
			Samples: wr.samples(), CPUShares: wr.shares, Metrics: ms, Problems: wr.problems,
		})
		for _, m := range ms {
			fmt.Fprintf(stdout, "%s %s %.6g %s\n", wr.w.Name, m.Name, m.Value, m.Unit)
			for _, d := range selected {
				if d.name == m.Name {
					name := m.Name
					if len(runs) > 1 {
						name = wr.w.Name + "/" + name
					}
					res.Metrics[name] = valueUnit{m.Value, m.Unit}
				}
			}
		}
		for _, p := range wr.problems {
			fmt.Fprintf(stderr, "bench: FAIL %s: %s\n", wr.w.Name, p)
		}
	}
	if h.updateRef {
		if err := writeReference(runs, h.ref.Workload, h.seed); err != nil {
			fmt.Fprintf(stderr, "bench: -update-ref: %v\n", err)
			res.Correct = false
		}
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, 1 // nothing ran at all
		res.Correct = false
	}
	name := "all"
	if len(runs) == 1 {
		name = runs[0].w.Name
	}
	path := filepath.Join(h.out, "bench-"+name+".json")
	if err := writeJSON(path, rep); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		res.Correct = false
	}
	fmt.Fprintf(stderr, "bench: report written to %s\n", path)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last output line: the verdict and the metrics.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// report is the JSON file the harness writes: the host context, the
// result line, and per workload its metrics, raw per-repetition samples
// and problems.
type report struct {
	Host      host             `json:"host"`
	Result    result           `json:"result"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string               `json:"name"`
	Reps      int                  `json:"reps"`
	Seconds   float64              `json:"seconds"`
	Samples   map[string][]float64 `json:"samples"`
	CPUShares map[string]float64   `json:"cpu_shares,omitempty"`
	Metrics   []metric             `json:"metrics"`
	Problems  []string             `json:"problems,omitempty"`
}

// host is the context a run was measured in.
type host struct {
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Jobs        int    `json:"jobs"`
	Seed        uint64 `json:"seed"`
	Seconds     int    `json:"seconds"`
	Traced      bool   `json:"traced"`
	GoVersion   string `json:"go_version"`
	CodeVersion string `json:"code_version"`
	GitHead     string `json:"git_head,omitempty"`
}

func hostContext(seed uint64, jobs, seconds int, traced bool) host {
	c := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Jobs: jobs, Seed: seed,
		Seconds: seconds, Traced: traced, GoVersion: runtime.Version(), CodeVersion: store.CodeVersion}
	// Only in a git work tree of its own: git would otherwise search the
	// parent directories, outside the checkout.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			c.GitHead = strings.TrimSpace(string(out))
		}
	}
	return c
}

func (h host) String() string {
	s := fmt.Sprintf("num_cpu=%d gomaxprocs=%d jobs=%d seed=%d seconds=%d traced=%t go=%s code_version=%s",
		h.NumCPU, h.GOMAXPROCS, h.Jobs, h.Seed, h.Seconds, h.Traced, h.GoVersion, h.CodeVersion)
	if h.GitHead != "" {
		s += " git=" + h.GitHead
	}
	return s
}

// harness runs workers, one process per repetition plus one for the
// layer probes, and reports what they measured.
type harness struct {
	seed      uint64
	jobs      int
	seconds   int  // untraced time budget per workload; 0 = fixed repetitions
	traced    bool // add a traced repetition per workload and the probes
	updateRef bool
	ref       reference
	out       string // reports and traces
	work      string // scratch, removed at exit
	exe       string
	context   host
	stderr    io.Writer
}

func (h *harness) setUp() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	h.exe = exe
	h.context = hostContext(h.seed, h.jobs, h.seconds, h.traced)
	// The first calibration of a process pays for the kernel's memory
	// coming from the OS; the first repetition would read fast after it.
	calibrate()
	if err := os.MkdirAll(h.out, 0o755); err != nil {
		return err
	}
	h.work, err = os.MkdirTemp(h.out, "work-")
	return err
}

// measure runs the untraced repetitions, interleaved round-robin across
// the workloads so host drift hits each alike, then one traced
// repetition per workload when asked for. With a -seconds budget each
// workload runs the number of untraced repetitions that comes closest
// to it (at least one).
func (h *harness) measure(ctx context.Context, ws []workload) []*workloadRun {
	runs := make([]*workloadRun, len(ws))
	for i, w := range ws {
		runs[i] = &workloadRun{w: w}
	}
	for more := true; more && ctx.Err() == nil; {
		more = false
		for _, wr := range runs {
			if !wr.wantsRep(float64(h.seconds)) || ctx.Err() != nil {
				continue
			}
			more = true
			wr.started++
			t0 := time.Now()
			err := h.rep(ctx, wr, false)
			wr.elapsed += time.Since(t0).Seconds()
			if err != nil {
				wr.problems = append(wr.problems, fmt.Sprintf("repetition %d: %v", wr.started, err))
			}
		}
	}
	for _, wr := range runs {
		if h.traced {
			if err := h.rep(ctx, wr, true); err != nil {
				wr.problems = append(wr.problems, fmt.Sprintf("traced repetition: %v", err))
			}
		}
		if err := ctx.Err(); err != nil {
			wr.problems = append(wr.problems, err.Error())
		}
	}
	return runs
}

func (wr *workloadRun) wantsRep(budget float64) bool {
	switch {
	case wr.started == 0:
		return true
	case budget <= 0:
		return wr.started < wr.w.Reps
	default:
		// Start another repetition when the run, at the mean repetition
		// time, ends nearer the budget with it than without it.
		return wr.elapsed+wr.elapsed/float64(wr.started)/2 <= budget
	}
}

// rep runs one repetition of wr's workload in a fresh worker process.
func (h *harness) rep(ctx context.Context, wr *workloadRun, traced bool) error {
	dir, err := os.MkdirTemp(h.work, wr.w.Name+"-")
	if err != nil {
		return err
	}
	defer removeAll(dir)
	spec := workerSpec{Mode: "rep", Workload: wr.w, Seed: h.seed, Jobs: h.jobs,
		Dir: dir, Out: filepath.Join(dir, "rep.json")}
	if traced {
		spec.Profile = filepath.Join(dir, "cpu.pprof")
		spec.Trace = filepath.Join(h.out, "trace-"+wr.w.Name+".json")
	}
	var r repResult
	cal := calibrate()
	rss, err := h.spawn(ctx, spec, &r)
	if err != nil {
		return err
	}
	r.CalS = (cal + calibrate()) / 2
	r.MaxRSSMB = float64(rss) / 1024
	if !traced {
		wr.reps = append(wr.reps, r)
		return nil
	}
	wr.traced = &r
	wr.shares, wr.cpuAttr, err = foldProfile(spec.Profile)
	return err
}

// probe runs the layer probes in a fresh worker process.
func (h *harness) probe(ctx context.Context) (map[string]float64, error) {
	dir, err := os.MkdirTemp(h.work, "probe-")
	if err != nil {
		return nil, err
	}
	defer removeAll(dir)
	var p map[string]float64
	_, err = h.spawn(ctx, workerSpec{Mode: "probe", Seed: h.seed, Dir: dir, Out: filepath.Join(dir, "probe.json")}, &p)
	return p, err
}

// spawn runs one worker to completion, decodes its result into out and
// returns its peak RSS in KiB.
func (h *harness) spawn(ctx context.Context, spec workerSpec, out any) (int64, error) {
	spec.Spawned = time.Now().UnixNano()
	blob, err := json.Marshal(spec)
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, h.exe)
	cmd.Env = append(os.Environ(), workerEnv+"="+string(blob))
	cmd.Stdout, cmd.Stderr = h.stderr, h.stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("worker: %w", err)
	}
	var rss int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss
	}
	blob, err = os.ReadFile(spec.Out)
	if err != nil {
		return 0, err
	}
	return rss, json.Unmarshal(blob, out)
}

// check collects the workload's correctness failures, each naming its
// cell: failed cells, paper-shape anchor violations, recalled results
// that differ from simulated ones, and, at one thread, results that
// differ between repetitions.
func (wr *workloadRun) check() {
	seen := map[string]bool{}
	note := func(p string) {
		if !seen[p] {
			seen[p] = true
			wr.problems = append(wr.problems, p)
		}
	}
	all := wr.allReps()
	for _, r := range all {
		for _, fs := range [][]string{r.SweepErrs, r.Failed, r.RecallMismatch} {
			for _, f := range fs {
				note(f)
			}
		}
		if wr.w.Opts.Threads == 0 {
			for _, v := range anchorViolations(r.Cells) {
				note("anchor: " + v)
			}
		}
	}
	if wr.w.Opts.Threads == 1 {
		for _, c := range nondetCells(all) {
			note(c + ": result differs between repetitions at one thread")
		}
	}
}

// checkReference compares every repetition's cells with the exact
// reference and returns how many unique cells mismatch.
func (wr *workloadRun) checkReference(ref reference) int {
	bad := map[string]bool{}
	for _, r := range wr.allReps() {
		if len(r.Cells) == 0 {
			continue
		}
		for _, m := range refMismatches(ref, r.Cells) {
			if !bad[m] {
				bad[m] = true
				wr.problems = append(wr.problems, "reference: "+m)
			}
		}
	}
	return len(bad)
}

func (wr *workloadRun) allReps() []repResult {
	all := append([]repResult(nil), wr.reps...)
	if wr.traced != nil {
		all = append(all, *wr.traced)
	}
	return all
}

// counts returns the cell requests attempted and failed across every
// repetition; a worker that failed outright counts as one of each.
func (wr *workloadRun) counts() (attempted, failed int) {
	all := wr.allReps()
	workers := wr.started - len(wr.reps)
	attempted, failed = workers, workers
	for _, r := range all {
		attempted += r.Attempted
		failed += len(r.Failed)
		if len(r.Failed) == 0 && len(r.SweepErrs) > 0 {
			attempted++
			failed++
		}
	}
	return attempted, failed
}

// samples returns the per-repetition values behind the medians.
func (wr *workloadRun) samples() map[string][]float64 {
	s := map[string][]float64{}
	for _, r := range wr.reps {
		s["sweep_s"] = append(s["sweep_s"], r.SweepS)
		s["setup_s"] = append(s["setup_s"], setupS(r))
		s["cal_s"] = append(s["cal_s"], r.CalS)
		s["startup_s"] = append(s["startup_s"], r.StartupS)
		s["peak_rss_mb"] = append(s["peak_rss_mb"], r.MaxRSSMB)
		s["cell_host_s"] = append(s["cell_host_s"], r.CellHostS...)
	}
	return s
}

func hasWorkload(ws []workload, name string) bool {
	for _, w := range ws {
		if w.Name == name {
			return true
		}
	}
	return false
}

// writeReference records the reference workload's first repetition.
func writeReference(runs []*workloadRun, name string, seed uint64) error {
	for _, wr := range runs {
		if wr.w.Name != name {
			continue
		}
		if len(wr.reps) == 0 || len(wr.reps[0].Cells) == 0 || len(wr.problems) > 0 {
			return errors.New("the reference workload did not run cleanly")
		}
		return writeJSON(refPath, newReference(name, seed, wr.reps[0].Cells))
	}
	return fmt.Errorf("no %s run", name)
}

// removeAll removes a scratch path, reporting (not failing on) errors.
func removeAll(path string) {
	if err := os.RemoveAll(path); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	}
}
