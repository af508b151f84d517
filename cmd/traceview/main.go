// Command traceview runs one NAS benchmark with the virtual-time tracer
// attached and prints the trace summary: the per-phase virtual-time
// breakdown of the timed loop (the paper's Figure 5 decomposition), the
// migration-engine activity per iteration, and the machine event counts.
// Tracing never charges virtual time, so the numbers are identical to an
// untraced run of the same configuration.
//
// Examples:
//
//	traceview -bench BT                            # ft baseline summary
//	traceview -bench FT -placement wc -upm upmlib
//	traceview -bench SP -upm recrep -chrome sp.json # + Chrome trace dump
//
// The heatmap subcommand renders the per-page × node reference-counter
// matrices captured by `sweep -metrics` (one per iteration) as ASCII
// intensity rows — how each node's references concentrate and shift
// across the hot pages as the migration engines act:
//
//	traceview heatmap -in out/bt-wc-upmlib-classS.metrics.json
//	traceview heatmap -in cell.metrics.json -iter 3 -width 64
//
// The report subcommand pretty-prints the host-side sweep report that
// `sweep -report file.json` writes: cells by fast-path kind, the host
// wall-time split by stage with its attribution ratio, the slowest
// cells, and the why-not histogram of cells that declined to
// fast-forward:
//
//	traceview report -in report.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"upmgo"
	"upmgo/internal/cli"
)

func main() { os.Exit(cli.Exit("traceview", run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr)) }

// run is main without the process exit, testable against any writers.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 && args[0] == "heatmap" {
		return runHeatmap(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "report" {
		return runReport(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("traceview", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := upmgo.NASConfig{Class: upmgo.ClassS, Placement: upmgo.FirstTouch}
	bench := cli.CellFlags(fs, &cfg)
	fs.BoolVar(&cfg.KernelMig, "kmig", false, "enable the IRIX-style kernel migration engine")
	fs.IntVar(&cfg.Threads, "threads", 0, "team size (0 = all simulated CPUs)")
	fs.Uint64Var(&cfg.Seed, "seed", 42, "workload seed")
	chrome := fs.String("chrome", "", "also write the Chrome trace_event JSON to this file")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	rec := upmgo.NewTraceRecorder()
	cfg.Tracer = rec
	res, err := upmgo.RunNAS(strings.ToUpper(*bench), cfg)
	if err != nil {
		return err
	}
	events := rec.Events()

	fmt.Fprintf(stdout, "%s\n", res)
	upmgo.WriteTraceSummary(stdout, upmgo.SummarizeTrace(events))

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			return err
		}
		if err := upmgo.WriteChromeTrace(f, events); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "traceview: wrote %s (%d events)\n", *chrome, len(events))
	}
	return cli.Verdict(res)
}

// runReport renders a `sweep -report` file as text tables.
func runReport(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("traceview report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "sweep report to render (a JSON file from `sweep -report`)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *in == "" {
		fs.Usage()
		return errors.New("report: -in is required")
	}
	blob, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	var sr upmgo.SweepReport
	if err := json.Unmarshal(blob, &sr); err != nil {
		return fmt.Errorf("%s is not a sweep report: %w", *in, err)
	}
	if sr.Cells == 0 {
		return fmt.Errorf("%s reports no cells — produce one with `sweep ... -report %s`", *in, *in)
	}
	writeReport(stdout, sr)
	return nil
}

// writeReport prints one SweepReport: the headline, cells by fast-path
// kind (cheapest first), host time by stage with the attribution ratio
// the telemetry layer promises (≥90% on real sweeps), the slowest
// cells, how much of each miss-stream recording simulated its caches,
// and the why-not histogram naming each refusing cell.
func writeReport(w io.Writer, sr upmgo.SweepReport) {
	fmt.Fprintf(w, "sweep report: %d cell runs, %.3fs host time", sr.Cells, sr.HostSeconds)
	if sr.WallSeconds > 0 {
		fmt.Fprintf(w, " over %.3fs wall (%.1fx parallel)", sr.WallSeconds, sr.HostSeconds/sr.WallSeconds)
	}
	fmt.Fprintln(w)
	if sr.Host != nil {
		fmt.Fprintf(w, "host: %s\n", sr.Host)
	}

	fmt.Fprintln(w, "\nCells by fast path (cheapest first):")
	// A report written by an older build may hold kinds this one no
	// longer produces (steady_period_k, campaign_ff): they follow the
	// known kinds, sorted.
	kinds := slices.Clone(upmgo.FastPathKinds)
	var legacy []upmgo.FastPathKind
	for k := range sr.ByKind {
		if !slices.Contains(kinds, k) {
			legacy = append(legacy, k)
		}
	}
	slices.Sort(legacy)
	kinds = append(kinds, legacy...)
	var maxKind int
	for _, k := range kinds {
		if n := sr.ByKind[k]; n > maxKind {
			maxKind = n
		}
	}
	for _, k := range kinds {
		n := sr.ByKind[k]
		if n == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-16s %5d  %s\n", k, n, strings.Repeat("#", bar(float64(n), float64(maxKind))))
	}

	fmt.Fprintf(w, "\nHost time by stage (%.1f%% of host time attributed):\n", 100*sr.Attributed())
	var maxStage float64
	sr.Stages.Each(func(name string, sec float64) {
		if sec > maxStage {
			maxStage = sec
		}
	})
	sr.Stages.Each(func(name string, sec float64) {
		if sec <= 0 {
			return
		}
		fmt.Fprintf(w, "  %-16s %10.4fs %5.1f%%  %s\n", name, sec,
			100*sec/sr.HostSeconds, strings.Repeat("#", bar(sec, maxStage)))
	})
	if resid := sr.HostSeconds - sr.Stages.Sum(); resid > 0 {
		fmt.Fprintf(w, "  %-16s %10.4fs %5.1f%%\n", "(unattributed)", resid, 100*resid/sr.HostSeconds)
	}

	if len(sr.Slowest) > 0 {
		fmt.Fprintln(w, "\nSlowest cells:")
		for i, c := range sr.Slowest {
			fmt.Fprintf(w, "  %d. %-3s %-14s class%-2s %-15s %9.4fs host (%8.4fs virtual, %s)",
				i+1, c.Bench, c.Label, c.Class, c.Kind, c.HostSeconds, c.VirtualSeconds, c.Source)
			if c.Address != "" {
				// The store address is the cell's identity; 16 hex digits
				// tell cells apart as well as the full digest does here.
				fmt.Fprintf(w, " @%.16s", c.Address)
			}
			if c.ReplayDeclined != "" {
				fmt.Fprintf(w, " replay declined: %s", c.ReplayDeclined)
			}
			fmt.Fprintln(w)
		}
	}

	if len(sr.Recordings) > 0 {
		fmt.Fprintln(w, "\nMiss-stream recordings:")
		for _, r := range sr.Recordings {
			fmt.Fprintf(w, "  %-3s %-14s class%-2s %v", r.Bench, r.Label, r.Class, r.Compression)
			if r.Stored.HeadBytes > 0 {
				fmt.Fprintf(w, "; stored %v", r.Stored)
			}
			fmt.Fprintln(w)
		}
	}

	if len(sr.WhyNot) > 0 {
		fmt.Fprintln(w, "\nWhy the fast path declined:")
		for _, wn := range sr.WhyNot {
			fmt.Fprintf(w, "  %-24s %5d  %s\n", wn.Reason, wn.Count, joinCells(wn.Cells, 6))
		}
	}
}

// bar scales v against max to a 40-column hash bar (at least one column
// for any non-zero value, like the figure renderers).
func bar(v, max float64) int {
	if v <= 0 || max <= 0 {
		return 0
	}
	n := int(40*v/max + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// joinCells renders a why-not bucket's cell names, elided past limit.
func joinCells(cells []string, limit int) string {
	if len(cells) <= limit {
		return strings.Join(cells, ", ")
	}
	return fmt.Sprintf("%s, +%d more", strings.Join(cells[:limit], ", "), len(cells)-limit)
}

// heatRamp maps a bucket's share of the hottest bucket to a character,
// dimmest to brightest.
const heatRamp = " .:-=+*#%@"

// runHeatmap renders the reference-counter heatmaps of a metrics series.
func runHeatmap(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("traceview heatmap", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "metrics series to render (a .metrics.json from `sweep -metrics`)")
	iter := fs.Int("iter", 0, "single iteration to render (0 = every captured iteration)")
	width := fs.Int("width", 80, "heatmap columns; hot pages are bucketed to fit")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *in == "" {
		fs.Usage()
		return errors.New("heatmap: -in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	se, err := upmgo.ReadMetricsSeries(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	if len(se.Heat) == 0 {
		return fmt.Errorf("%s carries no heatmaps — capture with `sweep -metrics dir` or MetricsOptions{Heatmap: true}", *in)
	}

	cell := se.Cell
	if cell == "" {
		cell = *in
	}
	fmt.Fprintf(stdout, "%s: %d hot pages × %d nodes, %d iterations captured\n\n",
		cell, se.HotPages, se.Nodes, len(se.Heat))
	rendered := 0
	for _, h := range se.Heat {
		if *iter != 0 && h.Step != *iter {
			continue
		}
		writeHeat(stdout, h, *width)
		rendered++
	}
	if rendered == 0 {
		return fmt.Errorf("no heatmap for iteration %d (series has steps 1..%d)", *iter, len(se.Heat))
	}
	return nil
}

// writeHeat prints one iteration's matrix: an intensity row per node
// (each column aggregates a contiguous run of hot pages, scaled to the
// hottest bucket of the iteration) and a closing row naming each
// column's dominant node ('.' where no references landed).
func writeHeat(w io.Writer, h upmgo.MetricsHeat, width int) {
	cols := width
	if cols < 1 {
		cols = 1
	}
	if cols > h.Pages {
		cols = h.Pages
	}
	sums := make([][]uint64, h.Nodes)
	for n := range sums {
		sums[n] = make([]uint64, cols)
	}
	for p := 0; p < h.Pages; p++ {
		c := p * cols / h.Pages
		for n := 0; n < h.Nodes; n++ {
			sums[n][c] += uint64(h.Counts[p*h.Nodes+n])
		}
	}
	var max uint64
	for _, row := range sums {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	fmt.Fprintf(w, "iteration %d (column ≈ %d pages, ramp %q):\n",
		h.Step, (h.Pages+cols-1)/cols, heatRamp)
	for n, row := range sums {
		line := make([]byte, cols)
		for c, v := range row {
			idx := 0
			if max > 0 {
				idx = int(v * uint64(len(heatRamp)-1) / max)
			}
			line[c] = heatRamp[idx]
		}
		fmt.Fprintf(w, "  node %d |%s|\n", n, line)
	}
	dom := make([]byte, cols)
	for c := 0; c < cols; c++ {
		best, bestN := uint64(0), -1
		for n := range sums {
			if sums[n][c] > best {
				best, bestN = sums[n][c], n
			}
		}
		if bestN < 0 {
			dom[c] = '.'
		} else {
			dom[c] = byte('0' + bestN%10)
		}
	}
	fmt.Fprintf(w, "  dom    |%s|\n\n", dom)
}
