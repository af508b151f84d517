package main

import (
	"sort"
	"strings"

	"upmgo"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the sweeps sees, in BENCHMARK.json
// order. Every one comes from untraced repetitions only.
var endToEnd = []metricDef{
	{"sweep_s", "s"},       // median wall time of a repetition's Sweep calls, on the reference host
	{"setup_s", "s"},       // median start-up + Σ prefix + fork stage seconds, on the reference host
	{"peak_rss_mb", "MiB"}, // median peak RSS of a repetition's worker process
}

// onRefHost scales a repetition's time to the reference host (refCalS).
// The shared host's co-tenants slow the simulator by up to half, in spells
// of seconds to minutes, and the calibration kernel timed around each
// repetition slows with it; their ratio holds steady where the raw times
// do not (README.md, "Bounds"). The raw medians are printed as
// sweep_s.raw and setup_s.raw.
func onRefHost(t func(r repResult) float64) func(r repResult) float64 {
	return func(r repResult) float64 { return t(r) * refCalS / r.CalS }
}

// perLayer are the metrics of single layers, in BENCHMARK.json order,
// reported by a traced run: cpu_share from the traced repetition's CPU
// profile, counts and stage sums from the untraced repetitions'
// results, and *_ns/*_us/*_ms from the layer probes (layers.go).
var perLayer = []metricDef{
	{"memsys.cpu_share", "ratio"}, {"memsys.host_ns_per_access", "ns"}, {"memsys.accesses", "count"},
	{"memsys.l1_miss_ratio", "ratio"}, {"memsys.l2_miss_ratio", "ratio"}, {"memsys.tlb_miss_ratio", "ratio"},
	{"memsys.access_lines_hit_ns", "ns"}, {"memsys.access_lines_miss_ns", "ns"}, {"memsys.tlb_lookup_run_ns", "ns"},
	{"machine.cpu_share", "ratio"}, {"machine.remote_ratio", "ratio"}, {"machine.nondet_cells", "count"},
	{"machine.load_run_ns", "ns"}, {"machine.store_shared_ns", "ns"}, {"machine.fork_s", "s"}, {"machine.clone_ms", "ms"},
	{"nas.cpu_share", "ratio"}, {"nas.bt.cpu_share", "ratio"}, {"nas.sp.cpu_share", "ratio"},
	{"nas.cg.cpu_share", "ratio"}, {"nas.mg.cpu_share", "ratio"}, {"nas.ft.cpu_share", "ratio"},
	{"nas.prefix_s", "s"}, {"nas.timed_loop_s", "s"}, {"nas.verify_s", "s"},
	{"nas.steady_cells", "count"}, {"nas.aperiodic_cells", "count"}, {"nas.homes_moving_cells", "count"},
	{"nas.extrapolated_iter_frac", "ratio"}, {"nas.prefix_bt_w_ms", "ms"},
	{"vm.cpu_share", "ratio"}, {"vm.faults", "count"}, {"vm.migrations", "count"}, {"vm.count_miss_n_ns", "ns"},
	{"omp.cpu_share", "ratio"}, {"omp.fork_join_t16_us", "us"}, {"omp.fork_join_t256_us", "us"},
	{"omp.barrier_t16_us", "us"}, {"omp.barrier_t256_us", "us"},
	{"kmig.cpu_share", "ratio"}, {"kmig.moves", "count"}, {"upm.cpu_share", "ratio"}, {"upm.migrations", "count"},
	{"exp.cells_simulated", "count"}, {"exp.cells_forked", "count"}, {"exp.prefixes", "count"},
	{"exp.cells_recalled", "count"}, {"exp.unattributed_s", "s"},
	{"store.cpu_share", "ratio"}, {"store.put_us", "us"}, {"store.get_us", "us"},
	{"runtime.cpu_share", "ratio"}, {"bench.cpu_attributed_frac", "ratio"},
	{"bench.stage_attributed_frac", "ratio"}, {"bench.trace_overhead_pct", "%"},
}

// extras are printed and recorded but left out of BENCHMARK.json: they
// are zero by design (failures, mismatches), exist on some workloads only
// (steady stages, the store), or are too unsteady to carry a bound:
// cell_p95_s, the p95 host seconds of a simulated cell pooled over
// repetitions, turns on whether a handful of slow cells extrapolated,
// which varies between runs at full width.
var extras = []metricDef{
	{"sweep_s.raw", "s"}, {"setup_s.raw", "s"}, {"startup_s", "s"}, {"cal_ms", "ms"},
	{"cell_p95_s", "s"}, {"reps", "count"}, {"cell_p95_s.samples", "count"}, {"fail_frac", "ratio"},
	{"ref_mismatch_cells", "count"}, {"nas.extrapolate_s", "s"}, {"nas.free_run_tail_s", "s"},
	{"store.probe_s", "s"}, {"store.recall_ms", "ms"},
}

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// units maps every metric name to its unit.
var units = func() map[string]string {
	u := map[string]string{}
	for _, l := range [][]metricDef{endToEnd, perLayer, extras} {
		for _, d := range l {
			u[d.name] = d.unit
		}
	}
	return u
}()

// workloadRun is everything one workload measured in one run.
type workloadRun struct {
	w        workload
	started  int         // repetitions started, failed workers included
	elapsed  float64     // seconds spent on untraced repetitions
	reps     []repResult // untraced repetitions whose worker succeeded
	traced   *repResult  // the traced repetition, when asked for
	shares   map[string]float64
	cpuAttr  float64
	problems []string // correctness failures, each naming its cell
}

// cellSums totals a repetition's unique cells.
type cellSums struct {
	acc, l1, l2, tlb, local, remote, faults, migr, kmig, upm float64
	iters, fast                                              float64
	fullLoopS, fullAcc                                       float64 // fully simulated cells only
}

func sumCells(cells []cellResult) cellSums {
	var s cellSums
	for _, c := range cells {
		m := c.Mach
		s.acc += float64(m.Accesses)
		s.l1 += float64(m.L1Miss)
		s.l2 += float64(m.L2Miss)
		s.tlb += float64(m.TLBMiss)
		s.local += float64(m.LocalMem)
		s.remote += float64(m.RemoteMem)
		s.faults += float64(m.Faults)
		s.migr += float64(m.Migrations)
		s.kmig += float64(c.KmigMoves)
		s.upm += float64(c.UPMMoves)
		s.iters += float64(c.Iters)
		s.fast += float64(c.FastIters)
		if c.Kind == upmgo.FastPathFullSim {
			s.fullLoopS += c.TimedLoopS
			s.fullAcc += float64(m.Accesses)
		}
	}
	return s
}

// metrics computes the workload's metrics: end-to-end, extras, and the
// per-layer metrics whose source the run has — the CPU shares and the
// trace overhead need the traced repetition, the *_ns/*_us/*_ms ones
// the probes (nil when not run).
func (wr *workloadRun) metrics(probes map[string]float64, refMismatch int) []metric {
	if len(wr.reps) == 0 {
		return nil
	}
	var out []metric
	add := func(name string, v float64) { out = append(out, metric{name, v, units[name]}) }
	med := func(f func(r repResult) float64) float64 {
		xs := make([]float64, len(wr.reps))
		for i, r := range wr.reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	var pool []float64
	for _, r := range wr.reps {
		pool = append(pool, r.CellHostS...)
	}
	sweep := func(r repResult) float64 { return r.SweepS }
	untraced := med(onRefHost(sweep))
	add("sweep_s", untraced)
	add("setup_s", med(onRefHost(setupS)))
	add("peak_rss_mb", med(func(r repResult) float64 { return r.MaxRSSMB }))

	add("sweep_s.raw", med(sweep))
	add("setup_s.raw", med(setupS))
	add("startup_s", med(func(r repResult) float64 { return r.StartupS }))
	add("cal_ms", 1e3*med(func(r repResult) float64 { return r.CalS }))
	add("cell_p95_s", quantile(pool, 0.95))
	add("reps", float64(len(wr.reps)))
	add("cell_p95_s.samples", float64(len(pool)))
	attempted, failed := wr.counts()
	add("fail_frac", ratio(float64(failed), float64(attempted)))
	if refMismatch >= 0 {
		add("ref_mismatch_cells", float64(refMismatch))
	}
	add("nas.extrapolate_s", med(func(r repResult) float64 { return r.Report.Stages.Extrapolate }))
	add("nas.free_run_tail_s", med(func(r repResult) float64 { return r.Report.Stages.FreeRunTail }))
	if wr.w.Store {
		add("store.probe_s", med(func(r repResult) float64 { return r.Report.Stages.StoreProbe }))
		add("store.recall_ms", 1e3*med(func(r repResult) float64 { return r.RecallS }))
	}
	sum := func(f func(s cellSums) float64) float64 {
		return med(func(r repResult) float64 { return f(sumCells(r.Cells)) })
	}
	whyNot := func(reason upmgo.NASWhyNotReason) float64 {
		return med(func(r repResult) float64 {
			for _, b := range r.Report.WhyNot {
				if b.Reason == string(reason) {
					return float64(b.Count)
				}
			}
			return 0
		})
	}
	for _, d := range perLayer {
		var v float64
		ok := true
		switch d.name {
		case "memsys.host_ns_per_access":
			v = sum(func(s cellSums) float64 { return ratio(1e9*s.fullLoopS, s.fullAcc) })
		case "memsys.accesses":
			v = sum(func(s cellSums) float64 { return s.acc })
		case "memsys.l1_miss_ratio":
			v = sum(func(s cellSums) float64 { return ratio(s.l1, s.acc) })
		case "memsys.l2_miss_ratio":
			v = sum(func(s cellSums) float64 { return ratio(s.l2, s.l1) })
		case "memsys.tlb_miss_ratio":
			v = sum(func(s cellSums) float64 { return ratio(s.tlb, s.acc) })
		case "machine.remote_ratio":
			v = sum(func(s cellSums) float64 { return ratio(s.remote, s.local+s.remote) })
		case "machine.nondet_cells":
			all := wr.allReps()
			v, ok = float64(len(nondetCells(all))), len(all) > 1
		case "machine.fork_s":
			v = med(func(r repResult) float64 { return r.Report.Stages.Fork })
		case "nas.prefix_s":
			v = med(func(r repResult) float64 { return r.Report.Stages.Prefix })
		case "nas.timed_loop_s":
			v = med(func(r repResult) float64 { return r.Report.Stages.TimedLoop })
		case "nas.verify_s":
			v = med(func(r repResult) float64 { return r.Report.Stages.Verify })
		case "nas.steady_cells":
			v = med(func(r repResult) float64 {
				k := r.Report.ByKind
				return float64(k[upmgo.FastPathSteadyP1] + k[upmgo.FastPathSteadyPK] + k[upmgo.FastPathCampaign])
			})
		case "nas.aperiodic_cells":
			v = whyNot(upmgo.WhyNotAperiodic)
		case "nas.homes_moving_cells":
			v = whyNot(upmgo.WhyNotHomesMoving)
		case "nas.extrapolated_iter_frac":
			v = sum(func(s cellSums) float64 { return ratio(s.fast, s.iters) })
		case "vm.faults":
			v = sum(func(s cellSums) float64 { return s.faults })
		case "vm.migrations":
			v = sum(func(s cellSums) float64 { return s.migr })
		case "kmig.moves":
			v = sum(func(s cellSums) float64 { return s.kmig })
		case "upm.migrations":
			v = sum(func(s cellSums) float64 { return s.upm })
		case "exp.cells_simulated":
			v = med(func(r repResult) float64 { return float64(r.Cache.Misses) })
		case "exp.cells_forked":
			v = med(func(r repResult) float64 { return float64(r.Cache.Forked) })
		case "exp.prefixes":
			v = med(func(r repResult) float64 { return float64(r.Cache.Prefixes) })
		case "exp.cells_recalled":
			v = med(func(r repResult) float64 { return float64(r.Cache.Hits + r.Cache.DiskHits) })
		case "exp.unattributed_s":
			v = med(func(r repResult) float64 { return r.Report.HostSeconds - r.Report.Stages.Sum() })
		case "bench.cpu_attributed_frac":
			v, ok = wr.cpuAttr, wr.shares != nil
		case "bench.stage_attributed_frac":
			v = med(func(r repResult) float64 { return r.Report.Attributed() })
		case "bench.trace_overhead_pct":
			if ok = wr.traced != nil; ok {
				v = 100 * (onRefHost(sweep)(*wr.traced)/untraced - 1)
			}
		default:
			if layer, shared := strings.CutSuffix(d.name, ".cpu_share"); shared {
				v, ok = layerShare(wr.shares, layer), wr.shares != nil
			} else {
				v, ok = probes[d.name]
			}
		}
		if ok {
			add(d.name, v)
		}
	}
	return out
}

// setupS is a repetition's set-up time: the worker's start-up (spawn to its
// first Sweep call, so work moved into package initialisation shows) plus
// the host seconds its simulated cells spent building machines and cold
// starts before any timed iteration.
func setupS(r repResult) float64 { return r.StartupS + r.Report.Stages.Prefix + r.Report.Stages.Fork }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
