// Package exp regenerates every table and figure of the paper's
// evaluation on the simulated machine: Table 1 (memory hierarchy
// latencies), Figures 1 and 4 (execution time of the NAS benchmarks under
// the four placement schemes, with kernel migration and with UPMlib),
// Table 2 (steady-state slowdown and migration timing statistics),
// Figure 5 (record–replay on BT and SP) and Figure 6 (record–replay on
// the synthetically scaled BT).
package exp

import (
	"errors"
	"fmt"
	"io"

	"upmgo/internal/machine"
	"upmgo/internal/nas"
	"upmgo/internal/nas/bt"
	"upmgo/internal/nas/cg"
	"upmgo/internal/nas/ep"
	"upmgo/internal/nas/ft"
	"upmgo/internal/nas/is"
	"upmgo/internal/nas/lu"
	"upmgo/internal/nas/mg"
	"upmgo/internal/nas/sp"
	"upmgo/internal/topology"
	"upmgo/internal/upm"
	"upmgo/internal/vm"
)

// Builders maps benchmark names to constructors, in the paper's order.
var Builders = map[string]nas.Builder{
	"BT": bt.New,
	"SP": sp.New,
	"CG": cg.New,
	"MG": mg.New,
	"FT": ft.New,
}

// BenchOrder lists the benchmarks in the paper's presentation order.
var BenchOrder = []string{"BT", "SP", "CG", "MG", "FT"}

// ExtensionBuilders maps benchmarks beyond the paper's five. They are
// excluded from the figure sweeps (which reproduce the paper verbatim)
// but available to cmd/nasbench, cmd/pagemap and the extension benches.
var ExtensionBuilders = map[string]nas.Builder{
	"LU": lu.New,
	"EP": ep.New,
	"IS": is.New,
}

// Builder looks a benchmark up in the paper set first, then the
// extensions.
func Builder(name string) (nas.Builder, bool) {
	if b, ok := Builders[name]; ok {
		return b, true
	}
	b, ok := ExtensionBuilders[name]
	return b, ok
}

// Cell is one bar of a figure.
type Cell struct {
	Bench  string     `json:"bench"`
	Label  string     `json:"label"`
	Result nas.Result `json:"result"`
}

// Seconds returns the cell's main-loop time in virtual seconds.
func (c Cell) Seconds() float64 { return c.Result.Seconds() }

// ErrUnknownBenchmark reports a benchmark name outside the paper's five
// and the extensions. Callers match it with errors.Is.
var ErrUnknownBenchmark = errors.New("unknown NAS benchmark")

// newMachine builds a simulated machine, wrapping errors with the
// harness context. Table1 and the sweep cells (whose machines are built
// inside nas.Run and wrapped by run) share this error path.
func newMachine(mc machine.Config) (*machine.Machine, error) {
	m, err := machine.New(mc)
	if err != nil {
		return nil, fmt.Errorf("exp: build machine: %w", err)
	}
	return m, nil
}

// Table1 probes the simulated memory hierarchy exactly as the paper's
// Table 1 reports it: access latency by level and by hop count.
func Table1() ([]Row, error) { return Table1Topo("") }

// Table1Topo probes the ladder of a machine with the given shape (a
// topology.ParseShape string or preset; empty = the paper's default
// Origin2000). The row set follows the topology: after the cache and
// local rows, one remote row per hop distance at which some CPU exists —
// three for the default machine's cube of three binary unit-hop levels,
// seven for a 3-level hierarchy whose doubling hop weights give every
// level subset its own distance.
func Table1Topo(topo string) ([]Row, error) {
	mc := machine.DefaultConfig()
	if topo != "" {
		if err := mc.SetTopology(topo); err != nil {
			return nil, fmt.Errorf("exp: %w", err)
		}
	}
	m, err := newMachine(mc)
	if err != nil {
		return nil, err
	}
	a := m.NewArray("probe", 1<<16)
	rows := []Row{}

	c := m.CPU(0)
	// Warm: fault the page, load the TLB, fill caches.
	c.Load(a.Addr(0))
	t0 := c.Now()
	c.Load(a.Addr(0))
	rows = append(rows, Row{"L1 cache", 0, float64(c.Now()-t0) / 1e3})

	c.FlushL1()
	t0 = c.Now()
	c.Load(a.Addr(0))
	rows = append(rows, Row{"L2 cache", 0, float64(c.Now()-t0) / 1e3})

	c.FlushL1L2()
	t0 = c.Now()
	c.Load(a.Addr(0))
	rows = append(rows, Row{"local memory", 0, float64(c.Now()-t0) / 1e3})

	// Remote probes: page is homed on node 0; pick CPUs at each distance.
	for hops := 1; hops <= m.Topo.MaxHops(); hops++ {
		probe := (*machine.CPU)(nil)
		for i := 0; i < m.NumCPUs(); i++ {
			if m.Topo.Hops(m.CPU(i).NodeID, 0) == hops {
				probe = m.CPU(i)
				break
			}
		}
		if probe == nil {
			continue
		}
		probe.Load(a.Addr(0)) // warm the TLB
		probe.FlushL1L2()
		t0 = probe.Now()
		probe.Load(a.Addr(0))
		rows = append(rows, Row{"remote memory", hops, float64(probe.Now()-t0) / 1e3})
	}
	return rows, nil
}

// Row is one line of Table 1.
type Row struct {
	Level   string
	Hops    int
	Nanosec float64
}

// WriteTable1 renders Table 1 for the default machine to w.
func WriteTable1(w io.Writer) error { return WriteTable1Topo(w, "") }

// WriteTable1Topo renders the latency ladder of a machine with the given
// shape (empty = the default Origin2000) to w.
func WriteTable1Topo(w io.Writer, topo string) error {
	rows, err := Table1Topo(topo)
	if err != nil {
		return err
	}
	if topo == "" {
		fmt.Fprintln(w, "Table 1. Access latency to the levels of the simulated Origin2000 hierarchy.")
	} else {
		sh, err := topology.ParseShape(topo)
		if err != nil {
			return fmt.Errorf("exp: %w", err)
		}
		fmt.Fprintf(w, "Table 1. Access latency to the levels of the simulated %s machine.\n", sh)
	}
	fmt.Fprintf(w, "%-16s %-16s %12s\n", "Level", "Distance(hops)", "Latency(ns)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-16d %12.1f\n", r.Level, r.Hops, r.Nanosec)
	}
	return nil
}

// SweepOptions selects what a figure sweep runs. The JSON form (all
// fields optional; zero values mean the figure's defaults) is the
// "options" object of cmd/sweepd's POST /v1/jobs body.
type SweepOptions struct {
	Class   nas.Class `json:"class"`
	Benches []string  `json:"benches,omitempty"` // nil = the figure's default set (all five; BT+SP for Figure 5)
	Seed    uint64    `json:"seed,omitempty"`
	// Scale repeats each phase body in place (the paper's synthetic
	// scaling; Figure 5 runs 1, Figure 6 runs 4). 0 = the figure's
	// default. Ignored by Figures 1/4 and Table 2, which the paper runs
	// at native phase length only.
	Scale      int `json:"scale,omitempty"`
	Iterations int `json:"iterations,omitempty"` // 0 = class default
	// Threads sets the simulated team size; 0 = all CPUs (the paper's
	// setup). Every width is exactly reproducible: internal/omp runs a
	// team's members as coroutines in thread-id order.
	Threads int `json:"threads,omitempty"`
	// Steady arms the steady-state detector on every cell
	// (nas.Config.SteadyState); with Extrapolate also set, each cell
	// fast-forwards its tail once the per-iteration delta is proven to
	// repeat, cutting host time while every reported virtual-time
	// quantity stays bit-identical (the contract internal/nas's
	// steady-state tests enforce). Steady without Extrapolate is
	// detection-only: full simulation plus Result.SteadyAt.
	Steady      bool `json:"steady,omitempty"`
	Extrapolate bool `json:"extrapolate,omitempty"`
	// Topo runs every cell on a machine of this shape (a
	// topology.ParseShape string or preset — "4x2x8", "hier64",
	// "cube:2x2x2") instead of the class default. For the toposcale sweep
	// it narrows the shape set to just this shape. Empty = class default
	// machine; shapes cube-equivalent to it canonicalise away, so their
	// cells share the default cells' cache entries and store records.
	Topo string `json:"topo,omitempty"`
}

func (o *SweepOptions) defaults() {
	if o.Benches == nil {
		o.Benches = BenchOrder
	}
}

// run executes one configuration cell.
func run(bench string, cfg nas.Config) (Cell, error) {
	b, ok := Builder(bench)
	if !ok {
		return Cell{}, fmt.Errorf("exp: %w: %q", ErrUnknownBenchmark, bench)
	}
	r, err := nas.Run(b, cfg)
	if err != nil {
		return Cell{}, fmt.Errorf("exp: %s %s: %w", bench, cfg.Label(), err)
	}
	if r.VerifyErr != nil {
		return Cell{}, fmt.Errorf("exp: %s %s failed verification: %w", bench, cfg.Label(), r.VerifyErr)
	}
	return Cell{Bench: bench, Label: r.Label, Result: r}, nil
}

// Figure1Specs enumerates the paper's Figure 1 in presentation order:
// each benchmark under ft/rr/rand/wc placement, plain and with the
// IRIX-style kernel migration engine (8 cells per benchmark).
func Figure1Specs(o SweepOptions) []CellSpec {
	o.defaults()
	var specs []CellSpec
	for _, bench := range o.Benches {
		for _, p := range vm.Policies {
			for _, km := range []bool{false, true} {
				specs = append(specs, CellSpec{bench, nas.Config{
					Class: o.Class, Placement: p, KernelMig: km,
					Seed: o.Seed, Iterations: o.Iterations, Threads: o.Threads,
					SteadyState: o.Steady, Extrapolate: o.Steady && o.Extrapolate,
					Topo: o.Topo,
				}})
			}
		}
	}
	return specs
}

// Figure4Specs enumerates the paper's Figure 4 in presentation order:
// Figure 1 plus a UPMlib cell per placement (12 cells per benchmark).
// Figure 1's cells are a strict subset, so a shared Cache runs the
// overlap once.
func Figure4Specs(o SweepOptions) []CellSpec {
	o.defaults()
	var specs []CellSpec
	for _, bench := range o.Benches {
		for _, p := range vm.Policies {
			for _, mode := range []struct {
				km  bool
				upm nas.Mode
			}{{false, nas.UPMOff}, {true, nas.UPMOff}, {false, nas.UPMDistribute}} {
				specs = append(specs, CellSpec{bench, nas.Config{
					Class: o.Class, Placement: p, KernelMig: mode.km, UPM: mode.upm,
					Seed: o.Seed, Iterations: o.Iterations, Threads: o.Threads,
					SteadyState: o.Steady, Extrapolate: o.Steady && o.Extrapolate,
					Topo: o.Topo,
				}})
			}
		}
	}
	return specs
}

// TopoScaleShapes are the hierarchical machine shapes of the scaling
// sweep, in CPU-count order: 64, 128 and 256 CPUs (8, 16 and 32 NUMA
// nodes). They are preset names; topology.Presets spells them out.
var TopoScaleShapes = []string{"hier64", "hier128", "hier256"}

// TopoScaleSpecs enumerates the placement×engine grid of Figure 4 on
// each hierarchical machine shape, in shape order — the sweep that asks
// where the paper's "balanced placement is enough" conclusion breaks as
// the machine grows past the Origin2000. o.Topo, when set, narrows the
// sweep to that single shape (e.g. just the 64-CPU machine).
func TopoScaleSpecs(o SweepOptions) []CellSpec {
	shapes := TopoScaleShapes
	if o.Topo != "" {
		shapes = []string{o.Topo}
	}
	var specs []CellSpec
	for _, shape := range shapes {
		so := o
		so.Topo = shape
		specs = append(specs, Figure4Specs(so)...)
	}
	return specs
}

// Table2Row is one line of the paper's Table 2.
type Table2Row struct {
	Bench string `json:"bench"`
	// SlowdownTail[p] is the slowdown vs first-touch measured over the
	// last 75% of the iterations, per non-ft placement.
	SlowdownTail map[string]float64 `json:"slowdown_tail"`
	// FirstIterFrac[p] is the fraction of UPMlib page migrations that
	// happened in the first invocation.
	FirstIterFrac map[string]float64 `json:"first_iter_frac"`
}

// table2Placements are the non-ft placements Table 2 compares against
// the first-touch baseline, in the paper's column order.
var table2Placements = []vm.Policy{vm.RoundRobin, vm.Random, vm.WorstCase}

// Table2Specs enumerates the paper's Table 2 cells in presentation
// order: per benchmark, the UPMlib-enabled ft baseline followed by the
// rr/rand/wc runs. All four also appear in Figure 4, so a shared Cache
// reruns none of them.
func Table2Specs(o SweepOptions) []CellSpec {
	o.defaults()
	var specs []CellSpec
	for _, bench := range o.Benches {
		for _, p := range append([]vm.Policy{vm.FirstTouch}, table2Placements...) {
			specs = append(specs, CellSpec{bench, nas.Config{
				Class: o.Class, Placement: p, UPM: nas.UPMDistribute,
				Seed: o.Seed, Iterations: o.Iterations, Threads: o.Threads,
				SteadyState: o.Steady, Extrapolate: o.Steady && o.Extrapolate,
				Topo: o.Topo,
			}})
		}
	}
	return specs
}

// tailSlowdown compares the last 75% of the iterations of a run against
// the first-touch baseline (the paper's Table 2 metric).
func tailSlowdown(iters, base []int64) float64 {
	n := len(iters)
	if n == 0 || len(base) != n {
		return 0
	}
	from := n / 4
	var a, b int64
	for i := from; i < n; i++ {
		a += iters[i]
		b += base[i]
	}
	if b == 0 {
		return 0
	}
	return float64(a)/float64(b) - 1
}

// Figure5Cell is one bar of Figure 5: total time plus the non-overlapped
// migration overhead (the striped bar segment).
type Figure5Cell struct {
	Bench      string  `json:"bench"`
	Label      string  `json:"label"`
	Seconds    float64 `json:"seconds"`
	OverheadS  float64 `json:"overhead_s"` // UPMlib overhead charged on the critical path
	PhaseS     float64 `json:"phase_s"`    // cumulative marked-phase (z_solve) time
	Migrations int64   `json:"migrations"`
}

// Figure5Specs enumerates the paper's Figure 5/6 cells in presentation
// order: o.Benches (default BT and SP) with ft placement under IRIX /
// IRIXmig / upmlib / record-replay, each phase body repeated o.Scale
// times (default 1; Figure 6 uses 4). At Scale 1 the first three cells
// per benchmark also appear in Figures 1 and 4, so a shared Cache
// recalls them.
func Figure5Specs(o SweepOptions) []CellSpec {
	if o.Benches == nil {
		o.Benches = []string{"BT", "SP"}
	}
	if o.Scale < 1 {
		o.Scale = 1
	}
	// The paper's "n most critical pages" is 20 pages of 16 KB; on the
	// scaled-down classes the equivalent amount of data spans more of the
	// smaller pages.
	mc := machine.DefaultConfig()
	o.Class.MachineTweak(&mc)
	maxCritical := 20 * 16 * 1024 / mc.PageBytes
	var specs []CellSpec
	for _, bench := range o.Benches {
		cfgs := []nas.Config{
			{Placement: vm.FirstTouch},
			{Placement: vm.FirstTouch, KernelMig: true},
			{Placement: vm.FirstTouch, UPM: nas.UPMDistribute},
			{Placement: vm.FirstTouch, UPM: nas.UPMRecRep,
				UPMOptions: upm.Options{MaxCritical: maxCritical}},
		}
		for _, cfg := range cfgs {
			cfg.Class = o.Class
			cfg.Seed = o.Seed
			cfg.Iterations = o.Iterations
			cfg.Threads = o.Threads
			cfg.ComputeScale = o.Scale
			cfg.SteadyState = o.Steady
			cfg.Extrapolate = o.Steady && o.Extrapolate
			cfg.Topo = o.Topo
			// Repeating each phase body in place (the paper's synthetic
			// scaling) changes the numerics, exactly as in the paper,
			// where the scaled experiment is timed but not verified.
			cfg.SkipVerify = o.Scale > 1
			specs = append(specs, CellSpec{bench, cfg})
		}
	}
	return specs
}

// WriteCellsCSV renders a figure's cells as CSV (benchmark, label,
// virtual seconds, remote ratio, migrations) for external plotting.
func WriteCellsCSV(w io.Writer, cells []Cell) {
	fmt.Fprintln(w, "benchmark,label,virtual_seconds,remote_ratio,upm_migrations,kernel_migrations")
	for _, c := range cells {
		fmt.Fprintf(w, "%s,%s,%.6f,%.4f,%d,%d\n",
			c.Bench, c.Label, c.Seconds(), c.Result.Mach.RemoteRatio(),
			c.Result.UPM.Migrations+c.Result.UPM.ReplayMigrations, c.Result.KmigMoves)
	}
}
