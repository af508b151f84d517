// Command pagemap runs a NAS benchmark through nas.Run (seed 42, the
// nasbench default) and prints, after the cold start and after each
// iteration, where every hot page lives — a text heatmap of the data
// distribution that page placement and the migration engines produce.
// Each character is one page; its symbol is the node id (0-7) holding the
// page, '*' marks pages with read replicas, '!' frozen pages.
//
// Example — watch UPMlib turn a worst-case placement into a block
// distribution after the first iteration:
//
//	pagemap -bench BT -placement wc -upm upmlib
//	pagemap -bench SP -placement ft -upm recrep
//
// With -from, pagemap renders a metrics series captured earlier by
// `sweep -metrics` instead of running a simulation: each character is
// then the node that referenced the page most during that iteration
// ('.' where no references landed — cache-resident or frozen pages):
//
//	pagemap -from out/bt-wc-upmlib-classS.metrics.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"upmgo"
	"upmgo/internal/cli"
	"upmgo/internal/exp"
	"upmgo/internal/machine"
	"upmgo/internal/nas"
	"upmgo/internal/trace"
	"upmgo/internal/vm"
)

func main() { os.Exit(cli.Exit("pagemap", run(os.Args[1:], os.Stdout, os.Stderr), os.Stderr)) }

// run is main without the process exit, testable against any writers.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pagemap", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := nas.Config{Class: nas.ClassW, Placement: vm.WorstCase, UPM: nas.UPMDistribute,
		Iterations: 4, Seed: 42, SkipVerify: true}
	bench := cli.CellFlags(fs, &cfg)
	width := fs.Int("width", 96, "pages per output row")
	from := fs.String("from", "", "render this metrics series (a .metrics.json from `sweep -metrics`) instead of simulating")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *width < 1 {
		return fmt.Errorf("-width must be at least 1, not %d", *width)
	}
	if *from != "" {
		return renderSeries(*from, *width, stdout)
	}

	build, ok := exp.Builder(strings.ToUpper(*bench))
	if !ok {
		return fmt.Errorf("unknown benchmark %q", *bench)
	}
	hm := &homeMaps{w: stdout, width: *width, header: fmt.Sprintf("%s placement, upm=%s", cfg.Placement, cfg.UPM)}
	cfg.Tracer = hm
	res, err := nas.Run(func(m *machine.Machine, class nas.Class, scale int, seed uint64) nas.Kernel {
		hm.m, hm.k = m, build(m, class, scale, seed)
		return hm.k
	}, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pages per node: %v\n", hm.m.PT.HomeHistogram())
	return cli.Verdict(res)
}

// homeMaps is the trace.Tracer that draws the run: the page-home map at
// the head of the timed loop and again after each iteration's engine
// invocation.
type homeMaps struct {
	w      io.Writer
	width  int
	header string
	m      *machine.Machine
	k      nas.Kernel
}

func (h *homeMaps) Emit(ev trace.Event) {
	switch {
	case ev.Kind == trace.EvIterStart && ev.Arg0 == 1:
		fmt.Fprintf(h.w, "%s, %s — page homes by node (one char per page)\n\n", h.k.Name(), h.header)
		dump(h.w, h.m, h.k, h.width, "after cold start")
	case ev.Kind == trace.EvIterEnd:
		dump(h.w, h.m, h.k, h.width, fmt.Sprintf("after iteration %d", ev.Arg0))
	}
}

// renderSeries prints one map per captured iteration from a metrics
// series' heatmaps: the dominant referencing node per hot page.
func renderSeries(path string, width int, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	se, err := upmgo.ReadMetricsSeries(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(se.Heat) == 0 {
		return fmt.Errorf("%s carries no heatmaps — capture with `sweep -metrics dir` or MetricsOptions{Heatmap: true}", path)
	}
	cell := se.Cell
	if cell == "" {
		cell = path
	}
	fmt.Fprintf(stdout, "%s — dominant referencing node per page (one char per page)\n\n", cell)
	for _, h := range se.Heat {
		fmt.Fprintf(stdout, "after iteration %d:\n", h.Step)
		var sb strings.Builder
		for p := 0; p < h.Pages; p++ {
			row := h.Counts[p*h.Nodes : (p+1)*h.Nodes]
			best, bestN := uint32(0), -1
			for n, v := range row {
				if v > best {
					best, bestN = v, n
				}
			}
			if bestN < 0 {
				sb.WriteByte('.')
			} else {
				sb.WriteByte(byte('0' + bestN%10))
			}
			if (p+1)%width == 0 {
				sb.WriteByte('\n')
			}
		}
		out := sb.String()
		if !strings.HasSuffix(out, "\n") {
			out += "\n"
		}
		fmt.Fprintln(stdout, out)
	}
	return nil
}

func dump(w io.Writer, m *machine.Machine, k nas.Kernel, width int, label string) {
	fmt.Fprintln(w, label+":")
	var sb strings.Builder
	col := 0
	for _, r := range k.HotPages() {
		for vpn := r[0]; vpn < r[1]; vpn++ {
			switch {
			case m.PT.Frozen(vpn):
				sb.WriteByte('!')
			case m.PT.HasReplicas(vpn):
				sb.WriteByte('*')
			default:
				h := m.PT.Home(vpn)
				if h < 0 {
					sb.WriteByte('.')
				} else {
					sb.WriteByte(byte('0' + h%10))
				}
			}
			col++
			if col%width == 0 {
				sb.WriteByte('\n')
			}
		}
	}
	out := sb.String()
	if !strings.HasSuffix(out, "\n") {
		out += "\n"
	}
	fmt.Fprintln(w, out)
}
