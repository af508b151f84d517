// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices called out in
// DESIGN.md. Each benchmark reports the *simulated* quantity of interest
// as a custom metric (virtual seconds, slowdown percentages) alongside the
// host ns/op; the paper's conclusions live in those custom metrics.
//
// The benchmarks run at Class S so that `go test -bench=.` finishes in
// minutes on one core; cmd/sweep regenerates the Class W numbers reported
// in EXPERIMENTS.md.
package upmgo_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	"upmgo"
)

const benchSeed = 42

// benchNAS runs one configuration and reports its virtual time.
func benchNAS(b *testing.B, name string, cfg upmgo.NASConfig) upmgo.NASResult {
	b.Helper()
	cfg.Seed = benchSeed
	var last upmgo.NASResult
	for i := 0; i < b.N; i++ {
		r, err := upmgo.RunNAS(name, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if r.VerifyErr != nil {
			b.Fatalf("%s %s: %v", name, r.Label, r.VerifyErr)
		}
		last = r
	}
	b.ReportMetric(last.Seconds(), "vsec")
	return last
}

// benchSweep runs one sweep request on r.
func benchSweep(b *testing.B, r upmgo.SweepRunner, kind upmgo.SweepKind, o upmgo.SweepOptions) upmgo.SweepResult {
	b.Helper()
	res, err := r.Sweep(context.Background(), upmgo.SweepRequest{Kind: kind, Options: o})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1Latency probes the memory-hierarchy ladder (Table 1).
func BenchmarkTable1Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := upmgo.WriteTable1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1 regenerates one benchmark's Figure 1 bars (placement x
// kernel migration) and reports the wc slowdown.
func BenchmarkFigure1(b *testing.B) {
	for _, bench := range upmgo.NASBenchmarks {
		b.Run(bench, func(b *testing.B) {
			var ft, wc float64
			for i := 0; i < b.N; i++ {
				res := benchSweep(b, upmgo.SweepRunner{}, upmgo.KindFigure1, upmgo.SweepOptions{
					Class: upmgo.ClassS, Benches: []string{bench}, Seed: benchSeed,
				})
				for _, c := range res.Cells {
					switch c.Label {
					case "ft-IRIX":
						ft = c.Seconds()
					case "wc-IRIX":
						wc = c.Seconds()
					}
				}
			}
			b.ReportMetric(100*(wc/ft-1), "wc-slowdown-%")
		})
	}
}

// BenchmarkFigure4 regenerates one benchmark's Figure 4 bars and reports
// how close UPMlib brings the worst case to first-touch (the paper's
// headline).
func BenchmarkFigure4(b *testing.B) {
	for _, bench := range upmgo.NASBenchmarks {
		b.Run(bench, func(b *testing.B) {
			var ft, wcFix float64
			for i := 0; i < b.N; i++ {
				res := benchSweep(b, upmgo.SweepRunner{}, upmgo.KindFigure4, upmgo.SweepOptions{
					Class: upmgo.ClassS, Benches: []string{bench}, Seed: benchSeed,
				})
				for _, c := range res.Cells {
					switch c.Label {
					case "ft-IRIX":
						ft = c.Seconds()
					case "wc-upmlib":
						wcFix = c.Seconds()
					}
				}
			}
			b.ReportMetric(100*(wcFix/ft-1), "wc-upmlib-slowdown-%")
		})
	}
}

// BenchmarkSweepFigure4All is a developer's end-to-end sweep benchmark:
// the full Figure 4 (all five benchmarks × 12 cells) at Class S on a
// fresh cache, one L2-miss stream recorded per benchmark and every other
// cell replayed from it. The benchmark gate (ci/benchcompare) judges
// sweeps through bench/run.sh instead; CI runs this once as a smoke.
func BenchmarkSweepFigure4All(b *testing.B) {
	b.Run("replay", func(b *testing.B) {
		var replayed, streams int
		for i := 0; i < b.N; i++ {
			replayed, streams = 0, 0
			r := upmgo.SweepRunner{Cache: upmgo.NewSweepCache(), OnEvent: func(ev upmgo.SweepEvent) {
				if ev.Done && ev.Report.Replayed {
					replayed++
				}
				if ev.Done && ev.Report.Recording != nil {
					streams++
				}
			}}
			benchSweep(b, r, upmgo.KindFigure4, upmgo.SweepOptions{Class: upmgo.ClassS, Seed: benchSeed})
		}
		b.ReportMetric(float64(replayed), "replayed-cells")
		b.ReportMetric(float64(streams), "streams")
	})
}

// BenchmarkSweepTopo64 is a developer's hierarchical-machine benchmark
// (the gate's wide-s workload covers the 256-CPU hierarchy end to end):
// CG's full Figure 4 column (12 placement×engine cells)
// on the 64-CPU hier64 machine — 4× the Origin's CPUs through the
// mixed-radix distance path — with miss-stream replay as in a real sweep.
// The wc-slowdown metric records whether the placement gap is still open
// at 64 CPUs.
func BenchmarkSweepTopo64(b *testing.B) {
	var ft, wc float64
	for i := 0; i < b.N; i++ {
		res := benchSweep(b, upmgo.SweepRunner{Cache: upmgo.NewSweepCache()}, upmgo.KindTopoScale, upmgo.SweepOptions{
			Class: upmgo.ClassS, Benches: []string{"CG"}, Seed: benchSeed, Topo: "hier64",
		})
		for _, c := range res.Cells {
			switch c.Label {
			case "ft-IRIX@4x2x8":
				ft = c.Seconds()
			case "wc-IRIX@4x2x8":
				wc = c.Seconds()
			}
		}
	}
	b.ReportMetric(100*(wc/ft-1), "wc-slowdown-%")
}

// BenchmarkSweepClassWSteady measures what the steady-state fast-forward
// buys at the paper-scale class: SP's full Figure 4 column (12 cells) at
// Class W, simulated in full versus detected-and-extrapolated. Both
// variants replay one recorded L2-miss stream through the sweep cache.
func BenchmarkSweepClassWSteady(b *testing.B) {
	for _, mode := range []struct {
		name   string
		steady bool
	}{{"plain", false}, {"steady", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSweep(b, upmgo.SweepRunner{Cache: upmgo.NewSweepCache()}, upmgo.KindFigure4, upmgo.SweepOptions{
					Class: upmgo.ClassW, Benches: []string{"SP"}, Seed: benchSeed,
					Steady: mode.steady, Extrapolate: true,
				})
			}
		})
	}
}

// BenchmarkTable2Stats regenerates Table 2 and reports the worst tail
// slowdown across benchmarks and placements (paper: <= 2.7%).
func BenchmarkTable2Stats(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		res := benchSweep(b, upmgo.SweepRunner{}, upmgo.KindTable2, upmgo.SweepOptions{Class: upmgo.ClassS, Seed: benchSeed})
		worst = 0
		for _, r := range res.Table2 {
			for _, v := range r.SlowdownTail {
				if v > worst {
					worst = v
				}
			}
		}
	}
	b.ReportMetric(100*worst, "worst-tail-slowdown-%")
}

// BenchmarkFigure5RecordReplay regenerates Figure 5 (BT and SP under
// ft/IRIXmig/upmlib/recrep) and reports record-replay's cost relative to
// plain UPMlib at native phase length (paper: overhead cancels the gains).
func BenchmarkFigure5RecordReplay(b *testing.B) {
	var upmlib, recrep float64
	for i := 0; i < b.N; i++ {
		res := benchSweep(b, upmgo.SweepRunner{}, upmgo.KindFigure5, upmgo.SweepOptions{Class: upmgo.ClassS, Seed: benchSeed})
		for _, c := range res.Figure5 {
			if c.Bench != "BT" {
				continue
			}
			switch c.Label {
			case "ft-upmlib":
				upmlib = c.Seconds
			case "ft-recrep":
				recrep = c.Seconds
			}
		}
	}
	b.ReportMetric(100*(recrep/upmlib-1), "recrep-vs-upmlib-%")
}

// BenchmarkFigure6ScaledBT regenerates Figure 6 (BT with each phase
// repeated x4) and reports the same ratio; the paper's crossover means the
// metric should shrink versus Figure 5.
func BenchmarkFigure6ScaledBT(b *testing.B) {
	var upmlib, recrep float64
	for i := 0; i < b.N; i++ {
		res := benchSweep(b, upmgo.SweepRunner{}, upmgo.KindFigure6, upmgo.SweepOptions{Class: upmgo.ClassS, Seed: benchSeed})
		for _, c := range res.Figure5 {
			switch c.Label {
			case "ft-upmlib":
				upmlib = c.Seconds
			case "ft-recrep":
				recrep = c.Seconds
			}
		}
	}
	b.ReportMetric(100*(recrep/upmlib-1), "recrep-vs-upmlib-%")
}

// BenchmarkAblationThreshold sweeps UPMlib's competitive ratio thr
// (DESIGN.md ablation): too low migrates on noise, too high leaves remote
// pages in place.
func BenchmarkAblationThreshold(b *testing.B) {
	for _, thr := range []float64{1.2, 2, 4, 8} {
		b.Run(fmt.Sprintf("thr=%g", thr), func(b *testing.B) {
			r := benchNAS(b, "BT", upmgo.NASConfig{
				Class: upmgo.ClassS, Placement: upmgo.WorstCase, UPM: upmgo.UPMDistribute,
				UPMOptions: upmgo.UPMOptions{Threshold: thr},
			})
			b.ReportMetric(float64(r.UPM.Migrations), "migrations")
		})
	}
}

// BenchmarkAblationCriticalPages sweeps the record-replay page budget n.
func BenchmarkAblationCriticalPages(b *testing.B) {
	for _, n := range []int{4, 20, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := benchNAS(b, "BT", upmgo.NASConfig{
				Class: upmgo.ClassS, Placement: upmgo.FirstTouch, UPM: upmgo.UPMRecRep,
				UPMOptions: upmgo.UPMOptions{MaxCritical: n},
			})
			b.ReportMetric(float64(r.UPM.ReplayMigrations), "replays")
		})
	}
}

// BenchmarkAblationLatencyRatio scales the remote half of the latency
// ladder (the paper's Section 2.2 prediction: placement matters more on
// machines with higher remote:local ratios).
func BenchmarkAblationLatencyRatio(b *testing.B) {
	for _, mult := range []int64{1, 2, 4} {
		b.Run(fmt.Sprintf("x%d", mult), func(b *testing.B) {
			var ft, rr float64
			for i := 0; i < b.N; i++ {
				tweak := func(mc *upmgo.MachineConfig) {
					mc.Lat = upmgo.Origin2000Latency().ScaleRemote(mult, 1)
				}
				for _, p := range []upmgo.Policy{upmgo.FirstTouch, upmgo.RoundRobin} {
					r, err := upmgo.RunNAS("CG", upmgo.NASConfig{
						Class: upmgo.ClassS, Placement: p, Seed: benchSeed, Tweak: tweak,
					})
					if err != nil {
						b.Fatal(err)
					}
					if p == upmgo.FirstTouch {
						ft = r.Seconds()
					} else {
						rr = r.Seconds()
					}
				}
			}
			b.ReportMetric(100*(rr/ft-1), "rr-slowdown-%")
		})
	}
}

// BenchmarkAblationCounterWidth compares the Origin2000's saturating
// 11-bit reference counters against narrower and unsaturable ones.
func BenchmarkAblationCounterWidth(b *testing.B) {
	for _, bits := range []int{4, 11, 32} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			r := benchNAS(b, "BT", upmgo.NASConfig{
				Class: upmgo.ClassS, Placement: upmgo.WorstCase, UPM: upmgo.UPMDistribute,
				Tweak: func(mc *upmgo.MachineConfig) { mc.CounterBits = bits },
			})
			b.ReportMetric(float64(r.UPM.Migrations), "migrations")
		})
	}
}

// BenchmarkAblationPageSize varies the page size: bigger pages mean fewer,
// cheaper-per-byte migrations but coarser placement.
func BenchmarkAblationPageSize(b *testing.B) {
	for _, kb := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			r := benchNAS(b, "BT", upmgo.NASConfig{
				Class: upmgo.ClassS, Placement: upmgo.WorstCase, UPM: upmgo.UPMDistribute,
				Tweak: func(mc *upmgo.MachineConfig) { mc.PageBytes = kb * 1024 },
			})
			b.ReportMetric(float64(r.UPM.Migrations), "migrations")
		})
	}
}

// BenchmarkAblationComputeScale sweeps the paper's Figure 6 scaling knob:
// record-replay's deficit versus plain UPMlib shrinks as the phase grows.
func BenchmarkAblationComputeScale(b *testing.B) {
	for _, scale := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("x%d", scale), func(b *testing.B) {
			var upmlib, recrep float64
			for i := 0; i < b.N; i++ {
				for _, mode := range []upmgo.UPMMode{upmgo.UPMDistribute, upmgo.UPMRecRep} {
					r, err := upmgo.RunNAS("BT", upmgo.NASConfig{
						Class: upmgo.ClassS, Placement: upmgo.FirstTouch, UPM: mode,
						ComputeScale: scale, Seed: benchSeed, SkipVerify: scale > 1,
					})
					if err != nil {
						b.Fatal(err)
					}
					if mode == upmgo.UPMDistribute {
						upmlib = r.Seconds()
					} else {
						recrep = r.Seconds()
					}
				}
			}
			b.ReportMetric(100*(recrep/upmlib-1), "recrep-vs-upmlib-%")
		})
	}
}

// BenchmarkAblationReplication measures the read-only replication
// extension on a broadcast pattern (every CPU repeatedly reading one
// shared table homed on node 0): the paper sketches replication in one
// sentence; this quantifies it.
func BenchmarkAblationReplication(b *testing.B) {
	for _, replicate := range []bool{false, true} {
		name := "off"
		if replicate {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var virt float64
			for i := 0; i < b.N; i++ {
				cfg := upmgo.DefaultMachineConfig()
				cfg.Placement = upmgo.WorstCase
				m, err := upmgo.NewMachine(cfg)
				if err != nil {
					b.Fatal(err)
				}
				table := m.NewArray("table", 8*2048)
				team, err := upmgo.NewTeam(m, m.NumCPUs())
				if err != nil {
					b.Fatal(err)
				}
				u := upmgo.NewUPM(m, upmgo.UPMOptions{})
				lo, hi := table.PageRange()
				u.MemRefCnt(lo, hi)
				u.EnableWriteTracking()
				sweep := func() {
					team.Parallel(func(tr *upmgo.Thread) {
						c := tr.CPU
						c.FlushCaches()
						for j := 0; j < table.Len(); j += 16 {
							table.Get(c, j)
						}
					})
				}
				sweep()
				if replicate {
					u.ReplicateReadOnly(team.Master(), upmgo.ReplicationOptions{MaxReplicas: 7})
				}
				t0 := team.Master().Now()
				for it := 0; it < 5; it++ {
					sweep()
				}
				virt = float64(team.Master().Now()-t0) / 1e12
			}
			b.ReportMetric(virt, "vsec")
		})
	}
}

// BenchmarkExtensionLU runs the pipelined-wavefront extension benchmark
// (NAS LU-style SSOR, not part of the paper's five codes) under the three
// interesting configurations: tuned first-touch, worst case, and worst
// case repaired by UPMlib.
func BenchmarkExtensionLU(b *testing.B) {
	cases := []struct {
		name string
		cfg  upmgo.NASConfig
	}{
		{"ft", upmgo.NASConfig{Class: upmgo.ClassS, Placement: upmgo.FirstTouch}},
		{"wc", upmgo.NASConfig{Class: upmgo.ClassS, Placement: upmgo.WorstCase}},
		{"wc-upmlib", upmgo.NASConfig{Class: upmgo.ClassS, Placement: upmgo.WorstCase, UPM: upmgo.UPMDistribute}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			benchNAS(b, "LU", c.cfg)
		})
	}
}

// BenchmarkAblationSchedule shows why the tuned NAS codes insist on
// SCHEDULE(STATIC) everywhere: first-touch locality only holds while the
// iteration-to-thread mapping is the same in every sweep. "stable" uses
// the block schedule throughout; "shifting" alternates between the block
// and cyclic static schedules — a deterministic stand-in for what
// dynamic/guided scheduling does to page affinity — and the remote share
// collapses toward the balanced-random level. No data distribution
// directive would fix this either; it is a scheduling property.
func BenchmarkAblationSchedule(b *testing.B) {
	for _, mode := range []string{"stable", "shifting"} {
		b.Run(mode, func(b *testing.B) {
			var remote float64
			for i := 0; i < b.N; i++ {
				m, err := upmgo.NewMachine(upmgo.DefaultMachineConfig())
				if err != nil {
					b.Fatal(err)
				}
				a := m.NewArray("a", 64*2048)
				team, err := upmgo.NewTeam(m, m.NumCPUs())
				if err != nil {
					b.Fatal(err)
				}
				sweep := func(s upmgo.Schedule) {
					team.Parallel(func(tr *upmgo.Thread) {
						tr.CPU.FlushCaches()
						tr.For(0, a.Len(), s, func(c *upmgo.CPU, from, to int) {
							for j := from; j < to; j++ {
								a.Add(c, j, 1)
							}
						})
					})
				}
				for it := 0; it < 6; it++ {
					s := upmgo.StaticSchedule()
					if mode == "shifting" && it%2 == 1 {
						s = upmgo.StaticChunkSchedule(2048)
					}
					sweep(s)
				}
				remote = m.Stats().RemoteRatio()
			}
			b.ReportMetric(100*remote, "remote-%")
		})
	}
}

// BenchmarkAblationMachineSize scales the machine itself: the paper's
// Section 2.2 notes that on "truly large-scale Origin2000 systems" some
// accesses cross many more hops (and one node's memory serves ever more
// processors), making bad placement matter more. The worst-case slowdown
// of CG grows steeply with the node count (measured: ~140% at 4 nodes to
// ~600% at 32). The balanced rr scheme is *not* a good probe here: with
// the problem size fixed, 64 threads make a page span several partitions
// and first-touch itself degrades toward rr, which is a geometry artefact
// rather than the paper's effect.
func BenchmarkAblationMachineSize(b *testing.B) {
	for _, nodes := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("%dnodes", nodes), func(b *testing.B) {
			var ft, wc float64
			for i := 0; i < b.N; i++ {
				tweak := func(mc *upmgo.MachineConfig) {
					mc.Nodes = nodes
					mc.CPUsPerNode = 2
				}
				for _, p := range []upmgo.Policy{upmgo.FirstTouch, upmgo.WorstCase} {
					r, err := upmgo.RunNAS("CG", upmgo.NASConfig{
						Class: upmgo.ClassW, Placement: p, Seed: benchSeed,
						Iterations: 3, Tweak: tweak, SkipVerify: true,
					})
					if err != nil {
						b.Fatal(err)
					}
					if p == upmgo.FirstTouch {
						ft = r.Seconds()
					} else {
						wc = r.Seconds()
					}
				}
			}
			b.ReportMetric(100*(wc/ft-1), "wc-slowdown-%")
		})
	}
}

// BenchmarkExtensionIS runs the integer-sort extension: its permutation
// scatter writes wherever the key values point, so placement helps it far
// less than the stencil codes, and UPMlib has little to migrate toward.
func BenchmarkExtensionIS(b *testing.B) {
	for _, p := range []upmgo.Policy{upmgo.FirstTouch, upmgo.WorstCase} {
		b.Run(p.String(), func(b *testing.B) {
			r := benchNAS(b, "IS", upmgo.NASConfig{Class: upmgo.ClassS, Placement: p})
			b.ReportMetric(100*r.Mach.RemoteRatio(), "remote-%")
		})
	}
}

// BenchmarkExtensionEP runs the embarrassingly parallel control: no page
// placement scheme should move it more than noise.
func BenchmarkExtensionEP(b *testing.B) {
	for _, p := range []upmgo.Policy{upmgo.FirstTouch, upmgo.WorstCase} {
		b.Run(p.String(), func(b *testing.B) {
			benchNAS(b, "EP", upmgo.NASConfig{Class: upmgo.ClassS, Placement: p})
		})
	}
}

// Microbenchmarks of the simulator's hot paths (host performance).

func BenchmarkSimLoadL1Hit(b *testing.B) {
	m, err := upmgo.NewMachine(upmgo.DefaultMachineConfig())
	if err != nil {
		b.Fatal(err)
	}
	a := m.NewArray("x", 1024)
	c := m.CPU(0)
	a.Get(c, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Get(c, 0)
	}
}

func BenchmarkSimStoreOwned(b *testing.B) {
	m, err := upmgo.NewMachine(upmgo.DefaultMachineConfig())
	if err != nil {
		b.Fatal(err)
	}
	a := m.NewArray("x", 1024)
	c := m.CPU(0)
	a.Set(c, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Set(c, 0, 1)
	}
}

func BenchmarkSimStreamingSweep(b *testing.B) {
	m, err := upmgo.NewMachine(upmgo.DefaultMachineConfig())
	if err != nil {
		b.Fatal(err)
	}
	a := m.NewArray("x", 256*1024)
	c := m.CPU(0)
	b.SetBytes(int64(a.Len() * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < a.Len(); j++ {
			a.Set(c, j, float64(j))
		}
	}
}

func BenchmarkParallelForkJoin(b *testing.B) {
	m, err := upmgo.NewMachine(upmgo.DefaultMachineConfig())
	if err != nil {
		b.Fatal(err)
	}
	team, err := upmgo.NewTeam(m, m.NumCPUs())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		team.Parallel(func(tr *upmgo.Thread) {})
	}
}
